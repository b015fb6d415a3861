package main

import (
	"fmt"
	"sync"

	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/roadnet"
	"kamel/internal/tensor"
	"kamel/internal/trajgen"
)

// maxGapM is the program's default max_gap (core.DefaultConfig), which both
// the gap count of the output checks and the §8 metrics use.
const maxGapM = 100

// spec sizes one workload's inputs and program configuration.
type spec struct {
	profile    func(scale float64) trajgen.Profile
	trainTrips int     // trips of the set-up training
	cases      int     // imputation inputs
	maxGaps    int     // most gaps longer than max_gap an input may have
	sparsifyM  float64 // §8 sparsification distance of the inputs
	deltaM     float64 // §8 accuracy threshold δ
	steps      int     // BERT training steps (the -steps of kamel serve)
	batch      int     // trajectories per ImputeBatch call (batch-jakarta)
	// Held-back training batches (ingest-porto): count × size trips simulated
	// from their own seed, never part of the set-up training.
	ingestBatches, ingestSize int
}

// testCase is one imputation input with its ground truth.
type testCase struct {
	truth  geo.Trajectory // the simulator's dense trajectory
	sparse geo.Trajectory // what the program receives
	gaps   int            // input gaps longer than max_gap (the expected segments)
}

// inputs is everything a workload feeds the program, derived from the
// workload's spec and the benchmark seed alone.
type inputs struct {
	proj   *geo.Projection // the program's projection: origin at the first training point
	train  []geo.Trajectory
	ingest [][]geo.Trajectory
	cases  []testCase
	order  *order
}

// order deals n items (cases, or batches of them) out round by round, each
// round in its own seed-derived permutation, so that concurrent callers meet
// each case in different company from round to round.
type order struct {
	seed   uint64
	n      int
	mu     sync.Mutex
	rounds [][]int
}

// at returns the case of the i-th operation of a phase.
func (o *order) at(i int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.rounds) <= i/o.n {
		o.rounds = append(o.rounds, tensor.NewRNG(mixSeed(o.seed, uint64(1000+len(o.rounds)))).Perm(o.n))
	}
	return o.rounds[i/o.n][i%o.n]
}

// mixSeed spreads a benchmark seed and a stream number over 64 bits, so
// neighbouring seeds give unrelated trips.
func mixSeed(seed uint64, stream uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// makeInputs simulates the workload's trips over the profile's fixed city.
//
// The set-up training corpus and the imputation inputs are fixed per
// workload; the seed orders the imputation inputs and the trips within each
// held-back training batch.  A seed that picked the imputation inputs would
// measure different work on every seed: the beam search's cost per gap is
// heavy-tailed (1 to 70 ms per porto-like trajectory of the same model), so
// the mean over any affordable pool swings by tens of percent.  Seed-picked
// held-back trips did the same to Train: one seed's calls ran 10% slower
// than another's on every repeat, since a call's cost follows the lengths of
// the stored trips it retrains over.  Training,
// imputation and held-back trips come from separate streams, so no input is
// ever trained on.
func makeInputs(sp spec, seed uint64) (*inputs, error) {
	prof := sp.profile(1)
	net := roadnet.GenerateCity(prof.City)
	proj := geo.NewProjection(prof.OriginLat, prof.OriginLng)
	trips := func(seed, stream uint64, n int) ([]geo.Trajectory, error) {
		cfg := prof.Traffic
		cfg.Trips, cfg.Seed = n, mixSeed(seed, stream)
		return trajgen.Generate(net, proj, cfg)
	}
	train, err := trips(0, 1, sp.trainTrips)
	if err != nil {
		return nil, err
	}
	in := &inputs{train: renamed(train, "train")}
	in.proj = geo.NewProjection(train[0].Points[0].Lat, train[0].Points[0].Lng)
	for stream := uint64(100); len(in.cases) < sp.cases; stream++ {
		if stream == 200 {
			return nil, fmt.Errorf("too few trips with at most %d gaps after sparsifying to %gm", sp.maxGaps, sp.sparsifyM)
		}
		pool, err := trips(0, stream, 4*sp.cases)
		if err != nil {
			return nil, err
		}
		for _, tr := range pool {
			sparse := tr.Sparsify(sp.sparsifyM)
			gaps := countGaps(in.proj, sparse)
			if gaps > sp.maxGaps || len(in.cases) == sp.cases {
				continue
			}
			id := fmt.Sprintf("test-%04d", len(in.cases))
			in.cases = append(in.cases, testCase{
				truth:  geo.Trajectory{ID: id, Points: tr.Points},
				sparse: geo.Trajectory{ID: id, Points: sparse.Points},
				gaps:   gaps,
			})
		}
	}
	in.order = &order{seed: seed, n: len(in.cases)}
	if sp.ingestBatches > 0 {
		// Held-back trips cross the city centre: no pyramid cell below the
		// root encloses them, so every Train call rebuilds the same models
		// instead of, on some seeds, pushing a quarter of the city over the
		// per-cell model threshold and doubling the cost of the calls after.
		centre := geo.XY{X: prof.City.Width / 2, Y: prof.City.Height / 2}
		var held []geo.Trajectory
		for stream := uint64(200); len(held) < sp.ingestBatches*sp.ingestSize; stream++ {
			if stream == 300 {
				return nil, fmt.Errorf("too few trips across the city centre")
			}
			pool, err := trips(0, stream, sp.ingestBatches*sp.ingestSize)
			if err != nil {
				return nil, err
			}
			for _, tr := range pool {
				if tr.MBR(proj).ContainsXY(centre) && len(held) < sp.ingestBatches*sp.ingestSize {
					held = append(held, tr)
				}
			}
		}
		held = renamed(held, "ingest")
		for i := 0; i < sp.ingestBatches; i++ {
			b := make([]geo.Trajectory, sp.ingestSize)
			for k, j := range tensor.NewRNG(mixSeed(seed, uint64(2000+i))).Perm(sp.ingestSize) {
				b[k] = held[i*sp.ingestSize+j]
			}
			in.ingest = append(in.ingest, b)
		}
	}
	return in, nil
}

// renamed gives trips IDs unique across the train, test and held-back sets
// (the simulator numbers every run from trip-0000).
func renamed(trs []geo.Trajectory, prefix string) []geo.Trajectory {
	out := make([]geo.Trajectory, len(trs))
	for i, tr := range trs {
		out[i] = geo.Trajectory{ID: fmt.Sprintf("%s-%04d", prefix, i), Points: tr.Points}
	}
	return out
}

// countGaps counts the gaps the program must impute: consecutive points
// farther apart than max_gap in the program's projection.
func countGaps(proj *geo.Projection, tr geo.Trajectory) int {
	n := 0
	for i := 0; i+1 < len(tr.Points); i++ {
		if proj.ToXY(tr.Points[i]).Dist(proj.ToXY(tr.Points[i+1])) > maxGapM {
			n++
		}
	}
	return n
}

// systemConfig is the configuration `kamel serve -steps N` runs with, so the
// in-process workloads measure the same system the server does.
func systemConfig(work string, steps int) core.Config {
	cfg := core.DefaultConfig(work)
	cfg.Train.Steps = steps
	cfg.PyramidH, cfg.PyramidL, cfg.ThresholdK = 1, 2, 300
	return cfg
}

// points counts the points of a set of trajectories: one store token each.
func points(trs []geo.Trajectory) int {
	n := 0
	for _, tr := range trs {
		n += len(tr.Points)
	}
	return n
}
