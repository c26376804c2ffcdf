package interp

// Checked makes a run walk every loop instead of running leaf loops from
// their plans. The walker is the oracle the planned runs are tested
// against.
func Checked() Option {
	return func(c *config) { c.checked = true }
}

// PlanAccesses reports how many of a finished run's accesses took their
// address from a plan.
func PlanAccesses(r *Result) uint64 { return r.Machine.planAccesses }
