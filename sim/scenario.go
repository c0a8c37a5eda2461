package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/comm"
	"repro/internal/workload"
	"repro/quant"
)

// Decoder bounds. Scenario files are human-written configuration, so
// the decoder enforces hard ceilings before any size-proportional
// allocation happens — a malformed or hostile file cannot balloon the
// process (FuzzScenarioDecode exercises this).
const (
	// MaxScenarioBytes caps the accepted file size.
	MaxScenarioBytes = 1 << 20
	// MaxRanks caps the simulated world size.
	MaxRanks = 1 << 17
	// MaxSteps caps the simulated step count.
	MaxSteps = 1 << 20
	// maxTensors and maxTensorElems bound synthetic inventories.
	maxTensors     = 4096
	maxTensorElems = 1 << 28
)

// TensorDim declares one synthetic gradient tensor.
type TensorDim struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
}

// SlowRank pins a deterministic straggler: the rank's compute and
// quantise kernels run Factor× slower.
type SlowRank struct {
	Rank   int     `json:"rank"`
	Factor float64 `json:"factor"`
}

// StragglerModel draws one persistent slowdown factor per rank at
// session start — the "some hosts are just slower" regime — plus
// explicit named stragglers.
type StragglerModel struct {
	// Dist selects the distribution: "" or "none" (factor 1
	// everywhere), "lognormal" (exp(σ·|N(0,1)|), heavy right tail), or
	// "uniform" (uniform on [1, Max]).
	Dist string `json:"dist,omitempty"`
	// Sigma is the lognormal shape parameter.
	Sigma float64 `json:"sigma,omitempty"`
	// Max is the uniform upper bound (≥ 1).
	Max float64 `json:"max,omitempty"`
	// Slow overrides the drawn factor for specific ranks.
	Slow []SlowRank `json:"slow,omitempty"`
}

// JitterModel draws a fresh per-rank arrival delay every step — data
// loading variance, OS noise, batch-boundary skew.
type JitterModel struct {
	// Dist selects the distribution: "" or "none", "uniform" (uniform
	// on [0, MaxMS]), or "exp" (exponential with mean MeanMS).
	Dist string `json:"dist,omitempty"`
	// MaxMS bounds the uniform draw, in milliseconds.
	MaxMS float64 `json:"max_ms,omitempty"`
	// MeanMS is the exponential mean, in milliseconds.
	MeanMS float64 `json:"mean_ms,omitempty"`
}

// FailureEvent kills one rank mid-step and walks the health/elastic
// planes' recovery timeline analytically: heartbeat-timeout detection,
// coordinated abort, re-rendezvous, snapshot state transfer from the
// max-step donor, and a re-run of the interrupted step (the PR 4/5
// detect → abort → rejoin sequence).
type FailureEvent struct {
	// Step is the 1-based step during which the rank dies.
	Step int `json:"step"`
	// Rank is the victim.
	Rank int `json:"rank"`
	// AtFrac places the death that fraction of the way through the
	// victim's compute phase (0 = right at step entry).
	AtFrac float64 `json:"at_frac,omitempty"`
	// HeartbeatTimeoutMS is the failure detector's hard silence
	// deadline (default 1000, matching the live plane's default).
	HeartbeatTimeoutMS float64 `json:"heartbeat_timeout_ms,omitempty"`
	// Rejoin selects recovery: true models a replacement claiming the
	// slot (elastic rejoin), false models the session ending in a
	// coordinated abort at detection time.
	Rejoin bool `json:"rejoin"`
}

// Scenario is one cluster simulation, decodable from JSON. Zero values
// select calibrated defaults, so a minimal scenario is just
// {"name": ..., "ranks": N, "steps": S}.
type Scenario struct {
	Name string `json:"name"`
	// Seed drives every random draw; same seed, same trace.
	Seed uint64 `json:"seed"`
	// Ranks is the world size (may be thousands).
	Ranks int `json:"ranks"`
	// Steps is the number of synchronous steps to simulate.
	Steps int `json:"steps"`
	// Network names a workload-zoo inventory (AlexNet, VGG19, ...);
	// Tensors declares a synthetic one instead. Default AlexNet.
	Network string      `json:"network,omitempty"`
	Tensors []TensorDim `json:"tensors,omitempty"`
	// Machine names the calibration base (EC2-P2 or DGX-1; default
	// EC2-P2): GPU compute scale, kernel costs and — absent an
	// explicit topology — the intra-host link model.
	Machine string `json:"machine,omitempty"`
	// Primitive is MPI (reduce-and-broadcast) or NCCL (ring); default
	// MPI.
	Primitive string `json:"primitive,omitempty"`
	// Policy is a precision policy in the quant.ParsePolicy grammar;
	// default 32bit.
	Policy string `json:"policy,omitempty"`
	// PerRankBatch is the per-rank minibatch (default 32).
	PerRankBatch int `json:"per_rank_batch,omitempty"`
	// Framed prices self-describing frame headers on every message —
	// set it when cross-validating against the framed TCP fabric.
	Framed bool `json:"framed,omitempty"`

	Topology   *Topology       `json:"topology,omitempty"`
	Stragglers *StragglerModel `json:"stragglers,omitempty"`
	Jitter     *JitterModel    `json:"jitter,omitempty"`
	Failures   []FailureEvent  `json:"failures,omitempty"`
	// ReplayComputeMS replays a measured schedule instead of the
	// calibrated compute model: ReplayComputeMS[s][r] is rank r's
	// compute time in step s+1, in milliseconds. Straggler factors
	// still multiply it; the calibrated model fills steps beyond the
	// replayed prefix.
	ReplayComputeMS [][]float64 `json:"replay_compute_ms,omitempty"`
}

// DecodeScenario parses and validates a JSON scenario. Allocation is
// bounded: oversized inputs are rejected before parsing and every
// embedded collection is checked against hard ceilings.
func DecodeScenario(data []byte) (Scenario, error) {
	var sc Scenario
	if len(data) > MaxScenarioBytes {
		return sc, fmt.Errorf("sim: scenario file is %d bytes, limit %d", len(data), MaxScenarioBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("sim: decode scenario: %w", err)
	}
	if dec.More() {
		return sc, fmt.Errorf("sim: trailing data after scenario object")
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// LoadScenario reads and decodes a scenario file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("sim: %w", err)
	}
	sc, err := DecodeScenario(data)
	if err != nil {
		return sc, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Validate checks ranges and cross-field consistency without touching
// the workload zoo (name resolution happens in RunScenario, so a
// scenario can be validated offline).
func (sc *Scenario) Validate() error {
	if sc.Ranks < 1 || sc.Ranks > MaxRanks {
		return fmt.Errorf("sim: ranks %d outside 1..%d", sc.Ranks, MaxRanks)
	}
	if sc.Steps < 1 || sc.Steps > MaxSteps {
		return fmt.Errorf("sim: steps %d outside 1..%d", sc.Steps, MaxSteps)
	}
	if sc.PerRankBatch < 0 {
		return fmt.Errorf("sim: per_rank_batch %d must be >= 0", sc.PerRankBatch)
	}
	if _, err := comm.ParsePrimitive(sc.Primitive); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if len(sc.Tensors) > maxTensors {
		return fmt.Errorf("sim: %d synthetic tensors, limit %d", len(sc.Tensors), maxTensors)
	}
	var elems int64
	for _, td := range sc.Tensors {
		if td.Rows < 1 || td.Cols < 1 {
			return fmt.Errorf("sim: tensor %q has non-positive shape %dx%d", td.Name, td.Rows, td.Cols)
		}
		elems += int64(td.Rows) * int64(td.Cols)
		if elems > maxTensorElems {
			return fmt.Errorf("sim: synthetic inventory exceeds %d elements", maxTensorElems)
		}
	}
	if sc.Policy != "" {
		if _, err := quant.ParsePolicy(sc.Policy); err != nil {
			return fmt.Errorf("sim: policy: %w", err)
		}
	}
	if sc.Topology != nil {
		if err := sc.Topology.validate(sc.Ranks); err != nil {
			return err
		}
	}
	if s := sc.Stragglers; s != nil {
		switch s.Dist {
		case "", "none":
		case "lognormal":
			if s.Sigma < 0 {
				return fmt.Errorf("sim: straggler sigma %v must be >= 0", s.Sigma)
			}
		case "uniform":
			if s.Max < 1 {
				return fmt.Errorf("sim: straggler max %v must be >= 1", s.Max)
			}
		default:
			return fmt.Errorf("sim: unknown straggler dist %q", s.Dist)
		}
		for _, sr := range s.Slow {
			if sr.Rank < 0 || sr.Rank >= sc.Ranks {
				return fmt.Errorf("sim: slow rank %d outside world of %d", sr.Rank, sc.Ranks)
			}
			if sr.Factor < 1 {
				return fmt.Errorf("sim: slow rank %d factor %v must be >= 1", sr.Rank, sr.Factor)
			}
		}
	}
	if j := sc.Jitter; j != nil {
		switch j.Dist {
		case "", "none":
		case "uniform":
			if j.MaxMS < 0 {
				return fmt.Errorf("sim: jitter max_ms %v must be >= 0", j.MaxMS)
			}
		case "exp":
			if j.MeanMS < 0 {
				return fmt.Errorf("sim: jitter mean_ms %v must be >= 0", j.MeanMS)
			}
		default:
			return fmt.Errorf("sim: unknown jitter dist %q", j.Dist)
		}
	}
	seenStep := map[int]bool{}
	for _, f := range sc.Failures {
		if f.Step < 1 || f.Step > sc.Steps {
			return fmt.Errorf("sim: failure step %d outside 1..%d", f.Step, sc.Steps)
		}
		if f.Rank < 0 || f.Rank >= sc.Ranks {
			return fmt.Errorf("sim: failure rank %d outside world of %d", f.Rank, sc.Ranks)
		}
		if f.AtFrac < 0 || f.AtFrac >= 1 {
			return fmt.Errorf("sim: failure at_frac %v outside [0,1)", f.AtFrac)
		}
		if f.HeartbeatTimeoutMS < 0 {
			return fmt.Errorf("sim: heartbeat_timeout_ms %v must be >= 0", f.HeartbeatTimeoutMS)
		}
		if seenStep[f.Step] {
			return fmt.Errorf("sim: multiple failures in step %d; one per step", f.Step)
		}
		seenStep[f.Step] = true
	}
	if len(sc.ReplayComputeMS) > sc.Steps {
		return fmt.Errorf("sim: replay covers %d steps, scenario has %d", len(sc.ReplayComputeMS), sc.Steps)
	}
	for s, row := range sc.ReplayComputeMS {
		if len(row) != sc.Ranks {
			return fmt.Errorf("sim: replay step %d has %d entries, want %d ranks", s+1, len(row), sc.Ranks)
		}
		for r, ms := range row {
			if ms < 0 {
				return fmt.Errorf("sim: replay step %d rank %d is negative (%v ms)", s+1, r, ms)
			}
		}
	}
	return nil
}

// tensorInfos resolves the scenario's gradient inventory: an explicit
// synthetic list, or the named (default AlexNet) zoo network's.
func (sc *Scenario) tensorInfos() ([]quant.TensorInfo, error) {
	if len(sc.Tensors) > 0 {
		infos := make([]quant.TensorInfo, len(sc.Tensors))
		for i, td := range sc.Tensors {
			name := td.Name
			if name == "" {
				name = fmt.Sprintf("t%d", i)
			}
			infos[i] = quant.TensorInfo{Name: name, Shape: quant.Shape{Rows: td.Rows, Cols: td.Cols}}
		}
		return infos, nil
	}
	name := sc.Network
	if name == "" {
		name = "AlexNet"
	}
	net, err := workload.NetworkByName(name)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return net.Tensors, nil
}
