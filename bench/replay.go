package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/rng"
)

// The layer replay re-performs synchronous steps from outside the
// engine — Dataset.Gather → Network.Forward → loss → Backward →
// Reducer.Reduce per tensor on a fresh fabric of the workload's kind,
// one goroutine per rank → SGD.Step — on the workload's real shapes and
// gradients, with a benchmark-owned span around every call into a
// layer. What the engine adds on top (per-step goroutine spawn, stats,
// bookkeeping) is then the difference between the replayed step and the
// end-to-end step: parallel.engine_overhead_us.

// replayResult carries rank 0's medians over the replayed steps.
type replayResult struct {
	log *spanLog

	gatherUS, forwardUS, backwardUS, optimizerUS, exchangeUS float64
	stepMS                                                   float64 // period of the replayed step: the blocking path

	allocsPerFwdBwd float64
	// grads are rank 0's local (pre-exchange) gradients of the last
	// replayed step: the real tensors the quant and comm rows measure on.
	grads [][]float32
}

// replay runs `steps` replayed steps after `warm` untimed ones.
func replay(w *workload, seed uint64, warm, steps int) (*replayResult, error) {
	k := w.workers
	train, _ := makeData(w, seed)
	reps := make([]*replica, k)
	for r := range reps {
		reps[r] = newReplica(w, seed) // same seed: identical initial weights
	}
	plan, err := planFor(w.policy, reps[0].net)
	if err != nil {
		return nil, err
	}
	m, err := newMesh(w.transport, w.primitive, tensorSpecs(reps[0].net, plan), k, seed)
	if err != nil {
		return nil, err
	}

	// The engine's batch schedule: one shuffled partition per epoch.
	shuffle := rng.New(seed).Fork(0xdead)
	var batches [][]int
	for len(batches) < warm+steps {
		batches = append(batches, epochBatches(train, shuffle, w.batch)...)
	}
	batches = batches[:warm+steps]

	log := newSpanLog(w.name)
	res := &replayResult{log: log}
	gate := newBarrier(k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rep := reps[r]
			for s, batch := range batches {
				gate.wait()
				if gate.aborted() {
					return
				}
				step := s - warm // negative = warm-up, kept in the trace
				root := log.begin("step", 0, r, step)
				shard := batch[r*len(batch)/k : (r+1)*len(batch)/k]

				id := log.begin("data.gather", root, r, step)
				x, labels := gather(train, shard)
				log.end(id)

				id = log.begin("nn.forward", root, r, step)
				rep.forward(x, labels)
				log.end(id)

				id = log.begin("nn.backward", root, r, step)
				rep.backward(labels)
				log.end(id)

				grads := rep.grads()
				if r == 0 && s == len(batches)-1 {
					for _, g := range grads {
						res.grads = append(res.grads, append([]float32(nil), g...))
					}
				}

				ex := log.begin("comm.exchange", root, r, step)
				for i, g := range grads {
					id = log.begin("comm.reduce", ex, r, step)
					err := m.reducer.Reduce(r, i, g)
					log.end(id)
					if err != nil {
						errs[r] = fmt.Errorf("replay step %d tensor %d: %w", s, i, err)
						gate.abort()
						m.close() // unblocks TCP peers
						return
					}
				}
				rep.scaleGrads(k)
				log.end(ex)

				id = log.begin("nn.optimizer", root, r, step)
				rep.step()
				log.end(id)
				log.end(root)
			}
		}(r)
	}
	wg.Wait()
	cerr := m.close()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if cerr != nil {
		return nil, cerr
	}

	// Rank 0's figures come from the quietest stretch of the replay — the
	// quietBlock·W consecutive steps with the lowest median period, the
	// same estimator the end-to-end step time uses — so the layer numbers
	// decompose the very steps they are compared with. The period between
	// step starts is the blocking path: the gate holds every rank for the
	// slowest one, as the engine's per-step join does.
	type stepCost struct {
		start int64
		dur   map[string]float64
	}
	var timed []stepCost
	for _, s := range log.snapshot() {
		if s.Rank != 0 || s.Step < 0 || s.Name == "comm.reduce" {
			continue
		}
		if s.Name == "step" {
			timed = append(timed, stepCost{start: s.StartNS, dur: map[string]float64{}})
			continue
		}
		timed[len(timed)-1].dur[s.Name] = float64(s.dur())
	}
	span := min(quietBlock*w.windowSteps(), len(timed)-1)
	best, bestPeriod := 0, math.Inf(1)
	for i := 0; i+span < len(timed); i++ {
		var periods []float64
		for j := i; j < i+span; j++ {
			periods = append(periods, float64(timed[j+1].start-timed[j].start))
		}
		if p := median(periods); p < bestPeriod {
			best, bestPeriod = i, p
		}
	}
	col := func(name string) float64 {
		var v []float64
		for _, st := range timed[best : best+span] {
			v = append(v, st.dur[name])
		}
		return median(v) / 1e3
	}
	res.gatherUS = col("data.gather")
	res.forwardUS = col("nn.forward")
	res.backwardUS = col("nn.backward")
	res.optimizerUS = col("nn.optimizer")
	res.exchangeUS = col("comm.exchange")
	res.stepMS = bestPeriod / 1e6

	// Allocation count of one forward+backward, alone on one goroutine.
	x, labels := gather(train, batches[0][:len(batches[0])/k])
	const rounds = 20
	var m0, m1 runtime.MemStats
	reps[0].forward(x, labels)
	reps[0].backward(labels)
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		reps[0].forward(x, labels)
		reps[0].backward(labels)
	}
	runtime.ReadMemStats(&m1)
	res.allocsPerFwdBwd = float64(m1.Mallocs-m0.Mallocs) / rounds
	return res, nil
}

// report prints rank 0's median duration and self time (duration minus
// the part its children cover) per span name over the timed steps.
func (r *replayResult) report(logf func(string, ...any)) {
	spans := r.log.snapshot()
	self := selfTimes(spans)
	dur, own := map[string][]float64{}, map[string][]float64{}
	var names []string
	for _, s := range spans {
		if s.Rank != 0 || s.Step < 0 {
			continue
		}
		if dur[s.Name] == nil {
			names = append(names, s.Name)
		}
		dur[s.Name] = append(dur[s.Name], float64(s.dur())/1e3)
		own[s.Name] = append(own[s.Name], float64(self[s.ID])/1e3)
	}
	logf("   replayed step, rank 0 (median us): span, duration, self time, calls per step")
	steps := float64(len(dur["step"]))
	for _, n := range names {
		logf("     %-14s %10.1f %10.1f %6.1f", n, median(dur[n]), median(own[n]), float64(len(dur[n]))/steps)
	}
}

// barrier is a reusable k-party rendezvous — the replay's step boundary
// — with an abort latch, so a rank whose Reduce failed cannot strand the
// others at the gate.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	k, n    int
	gen     int
	stopped bool
}

func newBarrier(k int) *barrier {
	b := &barrier{k: k}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return
	}
	gen := b.gen
	b.n++
	if b.n == b.k {
		b.n = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.stopped {
		b.cond.Wait()
	}
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.stopped = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *barrier) aborted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stopped
}
