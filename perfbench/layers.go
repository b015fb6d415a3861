package main

import (
	"bytes"
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"kamel/internal/bert"
	"kamel/internal/core"
	"kamel/internal/grid"
	"kamel/internal/tensor"
	"kamel/internal/vocab"
)

// layerInfo is what a session tells the kernel microbenchmarks about the
// run: the model configuration, the vocabulary the program built, and the
// inputs whose shapes the engine saw.
type layerInfo struct {
	cfg   core.Config
	vocab int // distinct tokens (SystemStats.DetokTokens) plus the specials
	in    *inputs
}

// kernelTime is how long each kernel is called back to back.
const kernelTime = 150 * time.Millisecond

// runtimeCounters reads this process's allocation and GC totals.
func runtimeCounters() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// layerMetrics fills the per-layer metrics of a traced run.  before and after
// bracket the traced phase ph; final follows the untimed checks, whose
// imputations stand in for a phase that imputed nothing (ingest-porto).
// base is the untraced phase run just before, for the tracing overhead.
// Metrics a workload does not exercise read 0.
func layerMetrics(m map[string]metric, s session, tr *tracer, before, after, final scrape, base, ph *phase) {
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{Value: v, Unit: unit}
	}
	delta := func(a, b scrape, name string, kv ...string) float64 { return b.sum(name, kv...) - a.sum(name, kv...) }
	trajs := float64(ph.trajs)

	// cmd/kamel serve: HTTP, JSON, middleware and admission.
	hSum := delta(before, after, "kamel_http_request_duration_seconds_sum", "route", "/v1/impute")
	hCount := delta(before, after, "kamel_http_request_duration_seconds_count", "route", "/v1/impute")
	handler := 1e3 * hSum / hCount
	put("serve.handler_ms", "ms", handler)
	if client, n := tr.meanUS("http.impute"); n > 0 {
		put("serve.wire_ms", "ms", client/1e3-handler)
		put("loadgen.cpu_ms_per_req", "ms", 1e3*ph.selfCPU/float64(n))
	} else {
		put("serve.wire_ms", "ms", 0)
		put("loadgen.cpu_ms_per_req", "ms", 0)
	}
	put("admission.limit", "count", after.sum("kamel_admission_limit"))
	put("admission.shed", "count", delta(before, after, "kamel_admission_shed_total")+delta(before, after, "kamel_http_shed_total"))

	put("process.busy_cores", "cores", ph.cpu/ph.wall.Seconds())

	// internal/batcher, internal/impute, internal/constraints and the engine
	// as the program times them.  The window is the traced phase, or the
	// untimed held-out pass when the phase imputed nothing.
	lo, hi := before, after
	if delta(before, after, "kamel_impute_requests_total") == 0 {
		lo, hi = after, final
	}
	imputed := delta(lo, hi, "kamel_impute_requests_total")
	batches := delta(lo, hi, "kamel_batcher_batches_total")
	perPass := delta(lo, hi, "kamel_batcher_items_total") / batches
	put("batcher.items_per_batch", "count", perPass)
	put("batcher.batches_per_traj", "count", batches/imputed)
	put("batcher.queue_wait_ms", "ms", 1e3*delta(lo, hi, "kamel_batcher_queue_wait_seconds_sum")/
		delta(lo, hi, "kamel_batcher_queue_wait_seconds_count"))
	stage := func(name string) (sum, count float64) { return stageDelta(lo, hi, name) }
	segs := delta(lo, hi, "kamel_served_segments_total")
	fails := delta(lo, hi, "kamel_served_failures_total")
	beamSum, beamCount := stage("impute.beam")
	predSum, predCount := stage("impute.predict")
	consSum, _ := stage("impute.constraints")
	lookSum, lookCount := stage("impute.lookup")
	detokSum, _ := stage("impute.detok")
	tokSum, _ := stage("impute.tokenize")
	put("impute.gaps_per_traj", "count", segs/imputed)
	put("impute.beam_ms", "ms", 1e3*beamSum/beamCount)
	put("impute.engine_calls_per_gap", "count", predCount/beamCount)
	put("impute.model_filled_ratio", "ratio", (segs-fails)/segs)
	put("constraints.filter_ms_per_traj", "ms", 1e3*consSum/imputed)
	put("bert.predict_ms", "ms", 1e3*predSum/predCount)
	put("pyramid.lookup_ms", "ms", 1e3*lookSum/lookCount)
	put("detok.detokenize_ms_per_traj", "ms", 1e3*detokSum/imputed)
	put("tokenizer.tokenize_ms_per_traj", "ms", 1e3*tokSum/imputed)

	// internal/pyramid + internal/modelcache, over the program's life: the
	// maintainer commits and pages models in during set-up.
	put("modelcache.misses", "count", after.sum("kamel_modelcache_misses_total"))
	put("modelcache.load_ms", "ms", 1e3*after.sum("kamel_modelcache_load_seconds_sum")/after.sum("kamel_modelcache_load_seconds_count"))
	put("pyramid.commit_ms", "ms", 1e3*after.sum("kamel_pyramid_commit_seconds_sum")/after.sum("kamel_pyramid_commit_seconds_count"))

	// internal/core train path: the traced phase when it trained
	// (ingest-porto), else the set-up training.
	tlo := before
	if _, c := stageDelta(before, after, "train.rebuild"); c == 0 {
		tlo = nil
	}
	appSum, appCount := stageDelta(tlo, after, "train.append")
	rebSum, rebCount := stageDelta(tlo, after, "train.rebuild")
	put("train.append_ms", "ms", 1e3*appSum/appCount)
	put("train.rebuild_ms", "ms", 1e3*rebSum/rebCount)
	put("pyramid.models_rebuilt_per_call", "count", delta(tlo, after, "kamel_rebuild_models_total")/rebCount)

	// Go runtime of the program's process (in-process workloads only).
	if _, n := tr.meanUS("http.impute"); n == 0 {
		put("runtime.alloc_mb_per_traj", "MiB", ph.allocBytes/(1<<20)/trajs)
		put("runtime.gc_cycles_per_traj", "count", ph.gcCycles/trajs)
	} else {
		put("runtime.alloc_mb_per_traj", "MiB", 0)
		put("runtime.gc_cycles_per_traj", "count", 0)
	}
	baseTPS := float64(base.trajs) / base.wall.Seconds()
	put("trace.overhead_pct", "%", 100*(baseTPS-trajs/ph.wall.Seconds())/baseTPS)

	batch := int(math.Round(perPass))
	if batch < 1 {
		batch = 1
	}
	kernelMetrics(put, tr, s.layerInfo(), batch)
}

// stageDelta is a stage's summed seconds and count between two scrapes; a
// nil lo means since the program started.
func stageDelta(lo, hi scrape, name string) (sum, count float64) {
	s2, c2 := hi.stage(name)
	s1, c1 := lo.stage(name)
	return s2 - s1, c2 - c1
}

// kernelMetrics calls the engine and its kernels directly at the run's
// shapes: batch queries per engine pass (from the batcher counters), the
// model configuration, the vocabulary size, and sequence lengths from the
// inputs.  Every call is a span; each metric is the mean span.
func kernelMetrics(put func(name, unit string, v float64), tr *tracer, li layerInfo, batch int) {
	cfg := li.cfg
	d, f := cfg.Hidden, cfg.FFN
	seqs := tokenSequences(li)
	qlen := queryLen(li)
	trainLen := 0
	if len(seqs) > 0 {
		// Training windows carry [CLS] and [SEP] and are cut at MaxSeqLen.
		lens := make([]float64, len(seqs))
		for i, s := range seqs {
			lens[i] = math.Min(float64(len(s)+2), float64(cfg.MaxSeqLen))
		}
		trainLen = int(median(lens))
	}
	put("shape.queries_per_pass", "count", float64(batch))
	put("shape.query_len", "count", float64(qlen))
	put("shape.vocab", "count", float64(li.vocab))

	bcfg := bert.Config{VocabSize: li.vocab, Hidden: d, Layers: cfg.Layers, Heads: cfg.Heads, FFN: f, MaxSeqLen: cfg.MaxSeqLen, Seed: cfg.Seed}
	model, err := bert.New(bcfg)
	if err != nil {
		return
	}
	rng := tensor.NewRNG(7)
	queries := make([]bert.MaskQuery, batch)
	for i := range queries {
		toks := make([]int, qlen)
		toks[0], toks[qlen-1] = vocab.CLS, vocab.SEP
		for j := 1; j < qlen-1; j++ {
			toks[j] = vocab.NumSpecial + rng.Intn(li.vocab-vocab.NumSpecial)
		}
		toks[qlen/2] = vocab.MASK
		queries[i] = bert.MaskQuery{Tokens: toks, MaskPos: qlen / 2, TopK: cfg.TopK + vocab.NumSpecial + 8}
	}
	put("bert.predict_batch_ms", "ms", repeat(tr, "bert.PredictMaskedBatch", func() { model.PredictMaskedBatch(queries) })/1e3)

	// The largest matmul of a pass: the FFN's first projection over every
	// stacked row.
	rows := batch * qlen
	a, bt, dst := randMat(rows, d, rng), randMat(f, d, rng), tensor.NewMat(rows, f)
	bias := make([]float32, f)
	put("tensor.matmul_tn_us", "us", repeat(tr, "tensor.MatMulTN", func() { tensor.MatMulTN(dst, a, bt, bias) }))
	put("tensor.matmul_tn_flops", "flop", float64(2*rows*d*f))
	put("tensor.matmul_tn_bytes", "B", float64(4*(rows*d+f*d+f+rows*f)))

	act := randMat(rows, f, rng)
	out := make([]float32, rows*f)
	put("tensor.gelu_us", "us", repeat(tr, "tensor.GELU", func() { tensor.GELU(out, act.A) }))
	// x·(1+tanh(√(2/π)(x+0.044715x³)))/2: 8 arithmetic operations and one
	// tanh per element.
	put("tensor.gelu_flops", "flop", float64(9*rows*f))
	put("tensor.gelu_bytes", "B", float64(8*rows*f))

	x, y := randMat(rows, d, rng), tensor.NewMat(rows, d)
	g, b := make([]float32, d), make([]float32, d)
	for i := range g {
		g[i] = 1
	}
	put("tensor.layernorm_us", "us", repeat(tr, "tensor.LayerNormInfer", func() { tensor.LayerNormInfer(y, x, g, b, 1e-5) }))
	// Mean, variance, normalise, scale and shift: 7 operations per element.
	put("tensor.layernorm_flops", "flop", float64(7*rows*d))
	put("tensor.layernorm_bytes", "B", float64(4*(2*rows*d+2*d)))

	logits := randMat(1, li.vocab, rng)
	row := make([]float32, li.vocab)
	put("tensor.softmax_us", "us", repeat(tr, "tensor.SoftmaxInPlace", func() {
		copy(row, logits.A)
		tensor.SoftmaxInPlace(row)
	}))
	// Max, subtract-and-exp, sum and divide: 4 operations per logit.
	put("tensor.softmax_flops", "flop", float64(4*li.vocab))
	put("tensor.softmax_bytes", "B", float64(8*li.vocab))

	// Training at the run's shapes: the vocabulary and the tokenized
	// training sequences, a few steps per call.
	const steps = 8
	tc := bert.DefaultTrainConfig()
	tc.Steps, tc.Warmup = steps, 2
	if len(seqs) > 0 {
		put("bert.train_step_ms", "ms", repeat(tr, "bert.Train", func() {
			if m, err := bert.New(bcfg); err == nil {
				m.Train(seqs, tc)
			}
		})/1e3/steps)
	}
	put("shape.train_seq_len", "count", float64(trainLen))

	// Page-in decode of a model of the run's size.
	var buf bytes.Buffer
	if _, err := model.WriteTo(&buf); err == nil {
		enc := buf.Bytes()
		put("bert.read_ms", "ms", repeat(tr, "bert.Read", func() { bert.Read(bytes.NewReader(enc)) })/1e3)
	}
}

// repeat calls fn back to back for kernelTime (at least 3 times), one span
// per call, and returns the mean call in microseconds.
func repeat(tr *tracer, name string, fn func()) float64 {
	parent := tr.begin("microbench."+name, 0)
	start := time.Now()
	var total time.Duration
	n := 0
	for n < 3 || time.Since(start) < kernelTime {
		total += func() time.Duration {
			sp := tr.begin(name, parent.ID())
			fn()
			return sp.end()
		}()
		n++
	}
	parent.end()
	return float64(total.Nanoseconds()) / 1e3 / float64(n)
}

func randMat(r, c int, rng *tensor.RNG) *tensor.Mat {
	m := tensor.NewMat(r, c)
	for i := range m.A {
		m.A[i] = float32(rng.NormFloat64())
	}
	return m
}

// tokenSequences tokenizes the training split as the program's fixed hex
// tokenizer does, collapsing repeated cells, and numbers the cells as a
// per-model vocabulary would.
func tokenSequences(li layerInfo) [][]int {
	hex := grid.NewHex(li.cfg.CellEdgeM)
	ids := map[grid.Cell]int{}
	var out [][]int
	for _, tr := range li.in.train {
		var seq []int
		var last grid.Cell
		for k, p := range tr.Points {
			c := hex.CellAt(li.in.proj.ToXY(p))
			if k > 0 && c == last {
				continue
			}
			last = c
			id, ok := ids[c]
			if !ok {
				id = vocab.NumSpecial + len(ids)
				if id >= li.vocab {
					id = li.vocab - 1
				}
				ids[c] = id
			}
			seq = append(seq, id)
		}
		if len(seq) >= 3 {
			out = append(out, seq)
		}
	}
	return out
}

// queryLen estimates the tokens of one masked query halfway through a beam
// search: [CLS], [SEP], the mask, both gap endpoints, one context token on
// each side, and half of the cells a straight gap crosses.
func queryLen(li layerInfo) int {
	step := grid.NewHex(li.cfg.CellEdgeM).StepMeters()
	var lens []float64
	for _, c := range li.in.cases {
		xy := c.sparse.XYs(li.in.proj)
		for i := 0; i+1 < len(xy); i++ {
			if dist := xy[i].Dist(xy[i+1]); dist > maxGapM {
				lens = append(lens, 7+math.Floor(dist/step/2))
			}
		}
	}
	if len(lens) == 0 {
		return 7
	}
	sort.Float64s(lens)
	n := int(quantile(lens, 0.5))
	if n > li.cfg.MaxSeqLen {
		n = li.cfg.MaxSeqLen
	}
	return n
}
