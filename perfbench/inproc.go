package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/trajgen"
	"kamel/internal/vocab"
)

// batch-jakarta: long jakarta-like gaps, so the engine and beam search do
// most of the work; one caller, so the batcher dispatches at once.
var batchSpec = spec{
	profile:    trajgen.JakartaLike,
	trainTrips: 12,
	cases:      16,
	maxGaps:    6,
	sparsifyM:  1000,
	deltaM:     25,
	steps:      15,
	batch:      2,
}

// ingest-porto: the write path, Train on fresh held-back porto-like batches.
var ingestSpec = spec{
	profile:       trajgen.PortoLike,
	trainTrips:    48,
	cases:         24,
	maxGaps:       4,
	sparsifyM:     400,
	deltaM:        50,
	steps:         5,
	ingestBatches: 64,
	ingestSize:    8,
}

// libSession is a core.System opened in this process and trained on the
// set-up split.
type libSession struct {
	sp   spec
	in   *inputs
	work string
	sys  *core.System
	refs []geo.Trajectory // warm-up outputs: one lone sequential call per case
	// trained counts what the benchmark has given Train, to check SystemStats.
	trainedTrajs, trainedPoints int
}

// openLib generates the inputs, opens a system on a fresh work directory,
// trains it and runs the warm-up pass.
func openLib(sp spec, o options) (*libSession, error) {
	in, err := makeInputs(sp, o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.state, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.state, "work-")
	if err != nil {
		return nil, err
	}
	s := &libSession{sp: sp, in: in, work: work}
	if s.sys, err = core.New(systemConfig(work, sp.steps)); err != nil {
		s.close()
		return nil, err
	}
	if _, err := s.train(nil, in.train); err != nil {
		s.close()
		return nil, err
	}
	lat, lng := s.sys.Projection().Origin()
	if wlat, wlng := in.proj.Origin(); lat != wlat || lng != wlng {
		s.close()
		return nil, fmt.Errorf("program projection origin (%v, %v), benchmark assumes (%v, %v)", lat, lng, wlat, wlng)
	}
	if s.refs, err = s.imputeEach(nil); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *libSession) train(tr *tracer, batch []geo.Trajectory) (time.Duration, error) {
	sp := tr.begin("core.Train", 0)
	err := s.sys.Train(batch)
	lat := sp.end()
	if err == nil {
		s.trainedTrajs += len(batch)
		s.trainedPoints += points(batch)
	}
	return lat, err
}

// imputeEach imputes every case with one lone sequential ImputeContext call
// and checks each output.
func (s *libSession) imputeEach(tr *tracer) ([]geo.Trajectory, error) {
	outs := make([]geo.Trajectory, len(s.in.cases))
	for i, c := range s.in.cases {
		sp := tr.begin("core.ImputeContext", 0)
		out, st, err := s.sys.ImputeContext(context.Background(), c.sparse)
		sp.end()
		if err != nil {
			return nil, err
		}
		if err := checkOutput(c.sparse, out, st.Segments, c.gaps); err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}

// imputeBatch runs one ImputeBatch call over the given cases and checks every
// output against the properties and against refs.
func (s *libSession) imputeBatch(tr *tracer, idx []int, refs []geo.Trajectory) opResult {
	trs := make([]geo.Trajectory, len(idx))
	for k, i := range idx {
		trs[k] = s.in.cases[i].sparse
	}
	sp := tr.begin("core.ImputeBatch", 0)
	res, err := s.sys.ImputeBatch(context.Background(), trs)
	r := opResult{lat: sp.end(), trajs: len(idx)}
	if err != nil {
		r.err = err
		return r
	}
	for k, i := range idx {
		c := s.in.cases[i]
		if res[k].Err != nil {
			r.err = res[k].Err
		} else if err := checkOutput(c.sparse, res[k].Trajectory, res[k].Stats.Segments, c.gaps); err != nil {
			r.err = err
		} else if err := sameOutput(res[k].Trajectory, refs[i]); err != nil {
			r.err = err
		}
		if r.err != nil {
			return r
		}
	}
	return r
}

// checkStats compares SystemStats with what the benchmark trained.
func (s *libSession) checkStats() error {
	st := s.sys.SystemStats()
	if st.Trajectories != s.trainedTrajs || st.Tokens != s.trainedPoints {
		return fmt.Errorf("SystemStats holds %d trajectories and %d tokens; the benchmark trained %d and %d",
			st.Trajectories, st.Tokens, s.trainedTrajs, s.trainedPoints)
	}
	return nil
}

func (s *libSession) layerInfo() layerInfo {
	return layerInfo{cfg: s.sys.Config(), vocab: s.sys.SystemStats().DetokTokens + vocab.NumSpecial, in: s.in}
}

func (s *libSession) usage() (float64, float64) { return selfCPU(), selfPeakRSSMB() }

func (s *libSession) scrape() (scrape, error) {
	var buf bytes.Buffer
	if err := s.sys.Obs().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

func (s *libSession) close() {
	if s.sys != nil {
		s.sys.Close()
	}
	os.RemoveAll(s.work)
}

// batchSession is batch-jakarta: ImputeBatch over fixed batches of
// consecutive cases, each round calling every batch once in a seed-derived
// order.  Fixed batches keep the latency distribution the same multiset of
// calls on every seed.
type batchSession struct {
	*libSession
	batches [][]int
	order   *order
}

func setupBatch(o options) (session, error) {
	ls, err := openLib(batchSpec, o)
	if err != nil {
		return nil, err
	}
	s := &batchSession{libSession: ls}
	for i := 0; i+batchSpec.batch <= len(ls.in.cases); i += batchSpec.batch {
		b := make([]int, batchSpec.batch)
		for k := range b {
			b[k] = i + k
		}
		s.batches = append(s.batches, b)
	}
	s.order = &order{seed: o.seed, n: len(s.batches)}
	return s, nil
}

func (s *batchSession) callers() int { return 1 }
func (s *batchSession) round() int   { return len(s.batches) }

func (s *batchSession) op(tr *tracer, _, i int) opResult {
	return s.imputeBatch(tr, s.batches[s.order.at(i)], s.refs)
}

// finish: every phase output equals its warm-up reference, and each case ran
// equally often (whole rounds), so the references score the phase.
func (s *batchSession) finish(*tracer) (float64, float64, []error, error) {
	r, p := accuracy(s.in.proj, s.in.cases, s.refs, s.sp.deltaM)
	return r, p, nil, s.checkStats()
}

// ingestSession is ingest-porto: Train on fresh held-back batches.
type ingestSession struct {
	*libSession
	next int // next held-back batch
}

func setupIngest(o options) (session, error) {
	ls, err := openLib(ingestSpec, o)
	if err != nil {
		return nil, err
	}
	return &ingestSession{libSession: ls}, nil
}

func (s *ingestSession) callers() int { return 1 }
func (s *ingestSession) round() int   { return 1 }

func (s *ingestSession) op(tr *tracer, _, _ int) opResult {
	if s.next >= len(s.in.ingest) {
		return opResult{err: fmt.Errorf("all %d held-back batches are trained", len(s.in.ingest))}
	}
	batch := s.in.ingest[s.next]
	s.next++
	lat, err := s.train(tr, batch)
	return opResult{lat: lat, trajs: len(batch), err: err}
}

// finish imputes the held-out cases, untimed: once with lone sequential
// calls, the references, then as one ImputeBatch operation that must match
// them.  Recall and precision score the trained system, not the throughput
// phase, which imputes nothing.
func (s *ingestSession) finish(tr *tracer) (float64, float64, []error, error) {
	statsErr := s.checkStats()
	refs, err := s.imputeEach(tr)
	if err != nil {
		return 0, 0, nil, err
	}
	idx := make([]int, len(s.in.cases))
	for i := range idx {
		idx[i] = i
	}
	r := s.imputeBatch(tr, idx, refs)
	rec, prec := accuracy(s.in.proj, s.in.cases, refs, s.sp.deltaM)
	return rec, prec, []error{r.err}, statsErr
}

func (s *batchSession) windows() int  { return 0 }
func (s *ingestSession) windows() int { return 0 }
