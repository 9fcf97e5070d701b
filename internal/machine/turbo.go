package machine

// Turbo Boost model. The paper's platform disables Turbo in the BIOS
// (§II) so all its measurements run at nominal frequency, but §I frames
// Turbo as one of the hardware levers in the energy/performance
// trade-off: "Increasing frequency, e.g., using Intel's Turbo Boost ...
// can save energy by completing the problem faster (but typically
// drawing higher power)." This model makes that lever available:
// per-socket opportunistic frequency boost that decays with the number
// of busy cores, with dynamic power following f·V² like the DVFS model.

// TurboParams configure opportunistic boost. The zero value disables it,
// matching the paper's BIOS setting.
type TurboParams struct {
	// Enabled turns the model on.
	Enabled bool
	// MaxBoost is the frequency multiplier with at most FullBoostCores
	// busy (e.g. 1.15 for a 2.7 GHz part boosting to ~3.1 GHz).
	MaxBoost float64
	// FullBoostCores is the busy-core count at or below which MaxBoost
	// applies; above it the boost decays linearly to 1.0 with every core
	// busy.
	FullBoostCores int
}

// DefaultTurbo returns E5-2680-like boost parameters (3.5 GHz single
// core to 3.1 GHz all-but-idle on a 2.7 GHz base is roughly +15% in the
// regime we model).
func DefaultTurbo() TurboParams {
	return TurboParams{Enabled: true, MaxBoost: 1.15, FullBoostCores: 4}
}

// BoostFor returns the frequency multiplier for a socket with the given
// number of busy cores (of coresPerSocket).
func (tp TurboParams) BoostFor(busy, coresPerSocket int) float64 {
	if !tp.Enabled || tp.MaxBoost <= 1 || busy == 0 {
		return 1
	}
	if busy <= tp.FullBoostCores {
		return tp.MaxBoost
	}
	if busy >= coresPerSocket {
		return 1
	}
	// Linear decay from MaxBoost at FullBoostCores to 1.0 at all cores.
	span := float64(coresPerSocket - tp.FullBoostCores)
	frac := float64(busy-tp.FullBoostCores) / span
	return tp.MaxBoost - (tp.MaxBoost-1)*frac
}
