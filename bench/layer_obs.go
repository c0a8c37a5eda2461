package main

import (
	"repro/obs"
)

// Adapter for the obs layer: the program's own tracer and registry,
// attached to the traced jobs, and the phase shares read back from the
// tracer's ring. These are the spans *inside* the program; the
// benchmark-owned spans of the layer replay are span.go's.

// traceRing holds every span of one traced job: the busiest workload
// records ~100 spans per step over a few hundred steps.
const traceRing = 1 << 16

func newObsPlane() (*obs.Tracer, *obs.Registry) {
	return obs.NewTracer(traceRing), obs.NewRegistry()
}

// phaseTotals sums rank 0's span durations per phase name.
type phaseTotals struct {
	byPhase  map[string]float64 // ns
	recorded int64              // spans recorded by every rank
	// computeMS and barrierMS are rank 0's per-step compute and exchange
	// spans — the same durations Trainer.StepStats publishes.
	computeMS, barrierMS []float64
}

func readPhases(tr *obs.Tracer) phaseTotals {
	out := phaseTotals{byPhase: map[string]float64{}, recorded: tr.Recorded()}
	for _, s := range tr.Snapshot() {
		if s.Rank != 0 {
			continue
		}
		out.byPhase[s.Phase.String()] += float64(s.DurNS)
		switch s.Phase {
		case obs.PhaseCompute:
			out.computeMS = append(out.computeMS, float64(s.DurNS)/1e6)
		case obs.PhaseBarrier:
			out.barrierMS = append(out.barrierMS, float64(s.DurNS)/1e6)
		}
	}
	return out
}

// add accumulates another job's totals.
func (p *phaseTotals) add(q phaseTotals) {
	if p.byPhase == nil {
		p.byPhase = map[string]float64{}
	}
	for k, v := range q.byPhase {
		p.byPhase[k] += v
	}
	p.recorded += q.recorded
	p.computeMS = append(p.computeMS, q.computeMS...)
	p.barrierMS = append(p.barrierMS, q.barrierMS...)
}
