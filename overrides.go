package elsa

import "fmt"

// Overrides carries one operation's operating-point overrides — the
// per-op knobs that the Go batch API (BatchOp), the streaming decode API
// (Stream.QueryOverrides) and the serving layer's HTTP envelope all name
// identically, so a client holding a calibrated threshold or a target
// degree of approximation expresses it the same way everywhere.
//
// The zero value overrides nothing: the op inherits whatever shared
// threshold its call site resolves.
type Overrides struct {
	// Thr, when non-nil, pins the op to an explicit pre-calibrated
	// operating point (e.g. from Calibrate or LoadThreshold), overriding
	// any batch- or session-level threshold.
	Thr *Threshold

	// P is the degree of approximation the op asks a calibrating layer to
	// resolve when Thr is nil (0 = exact). The core library never
	// calibrates mid-op, so P on its own does not change Resolve; it is
	// carried for layers that own a threshold registry — the serving
	// front end resolves it to a Threshold before dispatch.
	P float64

	// Backend selects which exact implementation serves the op when it
	// runs without approximation. "" (BackendAuto) lets the threshold
	// decide: on a float engine a threshold that disables the filter
	// runs the exact kernel (the BackendScores path), and a quantized
	// engine runs the accelerator pipeline with the filter disabled.
	// BackendScores pins the exact kernel and BackendLinearScan the
	// online-softmax linear scan — exact softmax semantics, O(d) state
	// per query, no n×n score materialization. An exact backend is only
	// meaningful for exact ops: call sites reject it combined with an
	// approximate operating point (p > 0 or a threshold with P > 0).
	Backend string
}

// Exact-backend names accepted by Overrides.Backend, the v1 envelope's
// "backend" field, and elsaserve -exact-backend.
const (
	// BackendAuto is the default: on a float engine exact ops run the
	// exact kernel (every key, nothing hashed, two-pass softmax); on a
	// quantized engine they run the accelerator pipeline with the filter
	// disabled, because it models the LUT units.
	BackendAuto = ""
	// BackendScores pins the blocked exact kernel on any engine (float
	// arithmetic on the engine's staged, possibly quantized, inputs), for
	// callers that want it against a server-level -exact-backend default.
	BackendScores = "scores"
	// BackendLinearScan is the exact online-softmax streaming backend.
	BackendLinearScan = "linear-scan"
)

// ValidBackend reports whether name is a recognized exact-backend
// selector.
func ValidBackend(name string) bool {
	switch name {
	case BackendAuto, BackendScores, BackendLinearScan:
		return true
	}
	return false
}

// wantsLinearScan reports whether these overrides route the op through
// the exact linear-scan backend.
func (o Overrides) wantsLinearScan() bool { return o.Backend == BackendLinearScan }

// checkBackend validates the backend selection against the op's operating
// point: the exact backends serve exact ops only.
func (o Overrides) checkBackend() error {
	if !ValidBackend(o.Backend) {
		return fmt.Errorf("unknown backend %q (want %q or %q)", o.Backend, BackendScores, BackendLinearScan)
	}
	if o.Backend == BackendAuto {
		return nil
	}
	if o.P != 0 || (o.Thr != nil && o.Thr.P != 0) {
		return fmt.Errorf("backend %q requires an exact operating point (p = 0)", o.Backend)
	}
	return nil
}

// Resolve returns the threshold these overrides select, falling back to
// shared when no explicit operating point is pinned.
func (o Overrides) Resolve(shared Threshold) Threshold {
	if o.Thr != nil {
		return *o.Thr
	}
	return shared
}
