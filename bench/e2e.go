package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/obs"
)

// job is one execution of a workload's fixed training job, from data
// generation to Close, with everything the checks and metrics need.
type job struct {
	windows  []window
	finalAcc float64
	steps    int // steps the Run performed (all windows)

	dataGen, build, runWall time.Duration

	wireBytes     int64
	predictedWire int64 // per step
	inSync        bool
	digest        uint64

	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNS           uint64

	// phases is the program's own trace of a traced job.
	phases phaseTotals

	// elastic round-trip, measured after Run when asked for.
	saveState, loadState time.Duration
	snapshotBytes        int
}

// runJob generates the data, builds the trainer (o.workers ranks) and
// performs one Run. The returned error is a failed operation of the program (the job's
// steps then count as failed); check failures are reported by verify.
func runJob(w *workload, seed uint64, o trainerOpts, withElastic bool) (*job, error) {
	j := &job{}
	t0 := time.Now()
	train, test := makeData(w, seed)
	j.dataGen = time.Since(t0)

	k := o.workers
	var tracer *obs.Tracer
	var registry *obs.Registry
	if o.traced {
		tracer, registry = newObsPlane()
	}
	t0 = time.Now()
	tr, err := newTrainer(w, seed, k, tracer, registry)
	if err != nil {
		return nil, fmt.Errorf("NewTrainer: %w", err)
	}
	j.build = time.Since(t0)
	// fail closes the trainer on an error path; its own error is the
	// lesser news there.
	fail := func(err error) (*job, error) {
		tr.Close()
		return nil, err
	}

	j.predictedWire = predictedWireBytes(tensorSpecs(tr.Model(), tr.Plan()), w.primitive, w.transport, k)

	// A collection before the timed Run puts every job on the same heap
	// footing; the GC work inside Run is the job's own.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	ws, final, err := runTrainer(tr, train, test)
	j.runWall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fail(fmt.Errorf("Run: %w", err))
	}
	j.windows, j.finalAcc = ws, final
	j.steps = len(ws) * w.windowSteps()
	j.mallocs = m1.Mallocs - m0.Mallocs
	j.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	j.gcCycles = m1.NumGC - m0.NumGC
	j.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	j.wireBytes = tr.WireBytes()
	j.inSync = tr.ReplicasInSync()
	j.digest = lossDigest(ws)
	if o.traced {
		j.phases = readPhases(tracer)
	}

	if withElastic {
		j.saveState, j.loadState, j.snapshotBytes, err = saveLoadState(tr)
		if err != nil {
			return fail(fmt.Errorf("SaveState/LoadState: %w", err))
		}
	}
	if err := tr.Close(); err != nil {
		return nil, fmt.Errorf("Close: %w", err)
	}
	return j, nil
}

// lossDigest is the FNV-1a hash of the per-window training-loss bits
// and the accuracy series: two commits must print the same digest for
// the same seed unless the later one says it changes arithmetic.
func lossDigest(ws []window) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w.loss))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w.accuracy))
		h.Write(b[:])
	}
	return h.Sum64()
}

// verify applies the correctness checks to one finished job and returns
// the failures (empty = correct).
func (j *job) verify() []string {
	var bad []string
	if !j.inSync {
		bad = append(bad, "replicas out of sync after Run")
	}
	for i, win := range j.windows {
		if math.IsNaN(win.loss) || math.IsInf(win.loss, 0) {
			bad = append(bad, fmt.Sprintf("window %d: non-finite loss %v", i, win.loss))
			break
		}
	}
	if want := j.predictedWire * int64(j.steps); j.wireBytes != want {
		bad = append(bad, fmt.Sprintf("wire bytes %d != predicted %d (%d per step x %d steps)",
			j.wireBytes, want, j.predictedWire, j.steps))
	}
	return bad
}

// stepsToTarget is the step count at which test accuracy first met the
// target: accuracy is measured at window ends, and the crossing inside
// the first window that meets the target is placed by linear
// interpolation from the previous window's accuracy (chance level before
// the first). It is a pure function of the accuracy series, so it is
// exact per seed. ok is false if the target was never met.
func stepsToTarget(ws []window, target, chance float64, windowSteps int) (steps float64, ok bool) {
	prev := chance
	for i, win := range ws {
		if win.accuracy >= target {
			frac := 1.0
			if win.accuracy > prev && target > prev {
				frac = (target - prev) / (win.accuracy - prev)
			}
			return (float64(i) + frac) * float64(windowSteps), true
		}
		prev = win.accuracy
	}
	return 0, false
}

// subSeed derives the i-th job seed of a run.
func subSeed(w *workload, seed uint64, i int) uint64 {
	return seed*uint64(w.subSeeds) + uint64(i%w.subSeeds)
}

// e2eResult is everything a set of jobs of one workload produces.
type e2eResult struct {
	jobs     int
	nWindows int       // timed windows behind the medians
	windowMs []float64 // their step times, in run order

	samplesPerS   float64
	stepMsP50     float64
	stepMsP95     float64
	wirePerStep   float64
	allocsPerStep float64
	timeToTargetS float64
	stepsToTarget float64
	finalAcc      float64
	setupS        float64

	allocBytesPerStep float64
	gcPer1k           float64
	gcPauseMsPer1k    float64
	windowNS          float64 // sum of every window's Elapsed, warm-up included
	digest            uint64
	minLoss           float64

	attempted, failed int
	failures          []string // correctness failures
	warnings          []string // guards: unstable, loss floor
}

// e2eRun accumulates jobs of one workload under one trainer variant
// (untraced, traced or the K=1 baseline).
type e2eRun struct {
	w    *workload
	seed uint64
	opts trainerOpts
	logf func(string, ...any)

	res       e2eResult
	bySub     []*job    // first job seen per sub-seed
	stepTimes []float64 // every timed window, in run order
	quietP50  []float64 // per job: lowest median of quietBlock consecutive timed windows, ms per step
	quietRate []float64 // per job: highest samples per second over such a block
	setups    []float64
	allocs    []float64
	allocB    []float64
	gcCycles  float64
	gcPauseNS float64
	steps     float64
}

func newE2ERun(w *workload, seed uint64, o trainerOpts, logf func(string, ...any)) *e2eRun {
	if o.workers == 0 {
		o.workers = w.workers
	}
	return &e2eRun{w: w, seed: seed, opts: o, logf: logf, bySub: make([]*job, w.subSeeds),
		res: e2eResult{minLoss: math.Inf(1)}}
}

// runOne performs the job of sub-seed index sub and folds it in. It
// reports false when the program itself failed and further timing is
// pointless.
func (r *e2eRun) runOne(sub int, withElastic bool) bool {
	w, res := r.w, &r.res
	W := w.windowSteps()
	sub %= w.subSeeds
	j, err := runJob(w, subSeed(w, r.seed, sub), r.opts, withElastic)
	res.jobs++
	res.attempted += w.jobSteps()
	if err != nil {
		res.failed += w.jobSteps()
		res.failures = append(res.failures, fmt.Sprintf("job %d: %v", res.jobs, err))
		return false
	}
	if bad := j.verify(); len(bad) > 0 {
		res.failed += j.steps
		for _, b := range bad {
			res.failures = append(res.failures, fmt.Sprintf("job %d: %s", res.jobs, b))
		}
	}
	if first := r.bySub[sub]; first == nil {
		r.bySub[sub] = j
	} else if j.digest != first.digest {
		// Same seed, same code, same process: the trajectory must
		// repeat bit for bit.
		res.failed += j.steps
		res.failures = append(res.failures, fmt.Sprintf("job %d: loss digest %016x differs from the first run of sub-seed %d (%016x)",
			res.jobs, j.digest, sub, first.digest))
	}
	ms := stepMs(j.windows, w.warm, W)
	r.stepTimes = append(r.stepTimes, ms...)
	var warmNS float64
	for i, win := range j.windows {
		if i < w.warm {
			warmNS += float64(win.elapsed)
		}
		res.windowNS += float64(win.elapsed)
		if win.loss < res.minLoss {
			res.minLoss = win.loss
		}
	}
	p50, blockMs := quietest(ms)
	r.quietP50 = append(r.quietP50, p50)
	r.quietRate = append(r.quietRate, float64(w.batch)/(blockMs/1e3))
	r.setups = append(r.setups, (float64(j.dataGen+j.build)+warmNS)/1e9)
	r.allocs = append(r.allocs, float64(j.mallocs)/float64(j.steps))
	r.allocB = append(r.allocB, float64(j.allocBytes)/float64(j.steps))
	r.gcCycles += float64(j.gcCycles)
	r.gcPauseNS += float64(j.gcPauseNS)
	r.steps += float64(j.steps)
	if r.logf != nil {
		toTarget := "unmet"
		if steps, ok := stepsToTarget(j.windows, w.target, 1/float64(w.data.classes), W); ok {
			toTarget = fmt.Sprintf("%.1f steps", steps)
		}
		r.logf("  job %d (sub-seed %d, K=%d): step p50 %.3f ms, run %.2fs, set-up %.3fs, final acc %.4f, target %s, digest %016x",
			res.jobs, sub, r.opts.workers, median(ms), j.runWall.Seconds(), r.setups[len(r.setups)-1], j.finalAcc, toTarget, j.digest)
	}
	return true
}

// quietBlock is how many consecutive timed windows make one timing
// sample. Interference on a shared host only ever slows a window down,
// and comes in bursts of seconds to minutes: pooled over a run, the
// median window moved by up to 60 % between back-to-back runs of the same
// seed, while the quietest block of three moved by 2 % (README, traps).
// The run therefore reports the quietest block it saw — its median for
// step_ms_p50, its mean for samples_per_s.
const quietBlock = 3

// quietest returns the lowest median and the lowest mean step time (ms)
// over all blocks of quietBlock consecutive windows of one job.
func quietest(ms []float64) (p50, mean float64) {
	n := min(quietBlock, len(ms)) // every real workload times >= 6 windows per job
	p50, mean = math.Inf(1), math.Inf(1)
	for i := 0; i+n <= len(ms); i++ {
		block := ms[i : i+n]
		p50 = min(p50, median(block))
		var sum float64
		for _, v := range block {
			sum += v
		}
		mean = min(mean, sum/float64(n))
	}
	return p50, mean
}

// stepMs returns the per-window step times (ms) of the timed windows.
func stepMs(ws []window, warm, windowSteps int) []float64 {
	var out []float64
	for i := warm; i < len(ws); i++ {
		out = append(out, float64(ws[i].elapsed)/float64(windowSteps)/1e6)
	}
	return out
}

// result closes the accumulation: medians, the per-sub-seed convergence
// figures and the guards.
func (r *e2eRun) result() *e2eResult {
	w, res := r.w, &r.res
	if len(r.stepTimes) == 0 {
		return res
	}
	W := w.windowSteps()
	res.nWindows = len(r.stepTimes)
	res.windowMs = r.stepTimes
	res.stepMsP50 = slices.Min(r.quietP50)
	res.samplesPerS = slices.Max(r.quietRate)
	res.stepMsP95 = percentile(r.stepTimes, 95)
	res.allocsPerStep = median(r.allocs)
	res.allocBytesPerStep = median(r.allocB)
	res.setupS = slices.Min(r.setups)
	res.gcPer1k = r.gcCycles / r.steps * 1000
	res.gcPauseMsPer1k = r.gcPauseNS / 1e6 / r.steps * 1000

	// Convergence figures: medians over the sub-seeds that ran, each an
	// exact function of its seed.
	var toTarget, finals []float64
	var unmet []string
	h := fnv.New64a()
	var b [8]byte
	for sub, j := range r.bySub {
		if j == nil {
			continue
		}
		if res.wirePerStep == 0 {
			res.wirePerStep = float64(j.wireBytes) / float64(j.steps)
		}
		finals = append(finals, j.finalAcc)
		binary.LittleEndian.PutUint64(b[:], j.digest)
		h.Write(b[:])
		steps, ok := stepsToTarget(j.windows, w.target, 1/float64(w.data.classes), W)
		if !ok {
			// Censored at the job length: the sub-seed sorts after every
			// one that did reach the target.
			steps = math.Inf(1)
			unmet = append(unmet, fmt.Sprintf("%d (best %.3f)", sub, bestAccuracy(j.windows)))
		}
		toTarget = append(toTarget, steps)
	}
	res.digest = h.Sum64()
	res.finalAcc = median(finals)
	sort.Float64s(toTarget)
	if mid := toTarget[len(toTarget)/2]; math.IsInf(mid, 1) {
		// The median sub-seed never got there: the run failed to deliver
		// what the workload promises, and every step of it counts.
		res.failed = res.attempted
		res.failures = append(res.failures, fmt.Sprintf("test accuracy never reached the target %.2f on sub-seeds %s",
			w.target, strings.Join(unmet, ", ")))
	} else {
		res.stepsToTarget = mid
		res.timeToTargetS = res.stepsToTarget * res.stepMsP50 / 1e3
		if len(unmet) > 0 {
			res.warnings = append(res.warnings, fmt.Sprintf("target %.2f unmet on sub-seeds %s (censored in the median)",
				w.target, strings.Join(unmet, ", ")))
		}
	}
	if res.failed > res.attempted {
		res.failed = res.attempted
	}

	// Guards. They warn; only the correctness checks fail a run.
	if n := len(r.stepTimes); n >= 8 {
		q2 := median(r.stepTimes[n/4 : n/2])
		q4 := median(r.stepTimes[3*n/4:])
		if math.Abs(q4-q2) > 0.10*q2 {
			res.warnings = append(res.warnings, fmt.Sprintf("unstable: last-quarter median window %.3f ms vs second-quarter %.3f ms (>10%%)", q4, q2))
		}
	}
	if res.minLoss < lossFloor {
		res.warnings = append(res.warnings, fmt.Sprintf("loss floor: a window's mean training loss fell to %.3g (< %.3g); the step may be timing denormal arithmetic", res.minLoss, lossFloor))
	}
	return res
}

// runE2E is the untraced timed run: jobs back to back, cycling through
// the sub-seeds, until every sub-seed has run and the measuring time is
// used up. One driver, K rank goroutines inside the trainer, no other
// load: a closed loop of fixed-size jobs.
func runE2E(w *workload, seed uint64, seconds float64, logf func(string, ...any)) *e2eResult {
	r := newE2ERun(w, seed, trainerOpts{}, logf)
	start := time.Now()
	for i := 0; i < w.subSeeds || time.Since(start).Seconds() < seconds; i++ {
		if !r.runOne(i, false) {
			break
		}
	}
	return r.result()
}

func bestAccuracy(ws []window) float64 {
	best := 0.0
	for _, w := range ws {
		if w.accuracy > best {
			best = w.accuracy
		}
	}
	return best
}
