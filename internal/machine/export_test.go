package machine

// InvalidatePlan makes m's next step replan from scratch. Called after
// every step from a StepHook (which runs on the stepper with the machine
// lock held), it turns m into the engine as it was before plans
// were reused: the referee for the edges internal/refmodel's scenario
// language cannot express (see plan_reuse_test.go).
func InvalidatePlan(m *Machine) { m.planValid = false }
