// Package telemetry synthesizes MareNostrum-3-style DRAM error logs: the
// proprietary production logs of §2.1 are replaced by a generative fault
// model whose aggregate statistics are calibrated to the paper's reported
// counts (≈4.5M corrected errors, 333 uncorrected errors reducing to 67
// first-in-burst UEs, ≈51 administrative DIMM retirements, ≈259k post-merge
// events over two years on 3056 nodes / >25k DIMMs).
//
// The model preserves the properties the prediction problem depends on:
//
//   - CE burstiness: faulty DIMMs emit clustered corrected-error records
//     whose MCA counts cover many errors, localized to a few rows/banks.
//   - CE→UE correlation: a subset of UEs ("signaled") occur on DIMMs whose
//     CE rate escalates and which emit UE warnings shortly before failing.
//   - Unpredictability: the remaining UEs ("sudden") occur with no log
//     activity in the preceding day, bounding achievable recall exactly as
//     in the paper (Always-mitigate recall 63%).
//   - Class imbalance: ≈3.5 orders of magnitude between events and UEs.
//   - Manufacturer heterogeneity: per-manufacturer rate multipliers.
package telemetry

import (
	"fmt"
	"time"

	"repro/internal/errlog"
)

// Config parameterizes the synthetic MareNostrum 3 log generator. The zero
// value is not usable; start from Default().
type Config struct {
	// Seed drives all randomness; identical configs generate identical logs.
	Seed int64
	// Start is the beginning of the observation period.
	Start time.Time
	// Duration is the observation period length (the paper covers slightly
	// over two years, Oct 2014 – Nov 2016).
	Duration time.Duration
	// Nodes is the number of compute nodes (MN3: 3056).
	Nodes int
	// DIMMsPerNode is the DIMM count per node (8 ⇒ ≈25k DIMMs).
	DIMMsPerNode int
	// ManufacturerShares gives the fraction of nodes with DIMMs from each
	// anonymized manufacturer (nodes are manufacturer-homogeneous, §4.5).
	ManufacturerShares [errlog.NumManufacturers]float64
	// FaultMultiplier scales each manufacturer's fault incidence.
	FaultMultiplier [errlog.NumManufacturers]float64

	// FaultyDIMMFraction is the probability a DIMM develops a latent CE
	// fault during the period.
	FaultyDIMMFraction float64
	// CEEntriesPerDay is the mean number of CE log records per faulty DIMM
	// per day after fault onset.
	CEEntriesPerDay float64
	// MeanCEBurst is the mean corrected-error count carried by one CE
	// record (the MCA registers report counts for the 100 ms window).
	MeanCEBurst float64
	// BackgroundCEPerDIMMYear is the rate of transient CE records on
	// healthy DIMMs (cosmic-ray style single events).
	BackgroundCEPerDIMMYear float64
	// StormsPerFaultyDIMM is the mean number of non-fatal CE-storm
	// episodes a faulty DIMM experiences: multi-day periods at the
	// escalated CE rate that do NOT end in a UE. Storms are what makes UE
	// prediction genuinely hard (and precision of the order of 0.02–0.06%
	// as in Table 2): the pre-UE escalation signature also appears,
	// frequently, without a UE.
	StormsPerFaultyDIMM float64
	// StormDurationDays is the mean storm length.
	StormDurationDays float64
	// StormBoost multiplies the CE record rate during storms (and during
	// the pre-UE escalation, keeping the two indistinguishable by rate).
	StormBoost float64
	// WarningsPerStormDay is the rate of UE-warning records during storms
	// (the correctable-ECC logging limit trips under any heavy CE
	// activity, §2.1.2 — warnings are not a UE giveaway).
	WarningsPerStormDay float64

	// SignaledUEs is the number of first-in-burst UEs preceded by an
	// escalating CE/warning signature (the predictable subset).
	SignaledUEs int
	// SuddenUEs is the number of first-in-burst UEs with no preceding
	// activity (the paper's hard 25-of-67 subset).
	SuddenUEs int
	// UEBurstMean is the mean number of additional UEs in the week after a
	// first UE (the node is under test; these are removed by UE reduction).
	UEBurstMean float64
	// OverTempFraction is the fraction of UEs recorded as critical
	// over-temperature shutdowns.
	OverTempFraction float64
	// EscalationDays is how long before a signaled UE the CE rate ramps.
	EscalationDays float64

	// BootIntervalDays is the mean interval between routine node boots.
	BootIntervalDays float64
	// FaultyNodeBootMultiplier increases boot frequency on nodes holding a
	// faulty DIMM (failing hardware reboots more often), a secondary
	// signal available to the predictors.
	FaultyNodeBootMultiplier float64

	// RetiredDIMMs is the number of administrative pre-failure DIMM
	// retirements (§2.1.4), which carry no preceding log signal.
	RetiredDIMMs int
	// ScrubFraction is the probability an error is found by the patrol
	// scrubber rather than an application access.
	ScrubFraction float64
}

// Default returns the full-scale configuration calibrated to the paper's
// aggregate statistics.
func Default() Config {
	return Config{
		Seed:     1,
		Start:    time.Date(2014, 10, 1, 0, 0, 0, 0, time.UTC),
		Duration: 2*365*24*time.Hour + 30*24*time.Hour,
		Nodes:    3056, DIMMsPerNode: 8,
		// 6694 / 5207 / 13419 DIMMs ⇒ shares ≈ 0.264 / 0.206 / 0.530.
		ManufacturerShares: [3]float64{0.264, 0.206, 0.530},
		FaultMultiplier:    [3]float64{1.35, 0.65, 1.0},

		FaultyDIMMFraction:      0.025,
		CEEntriesPerDay:         1.0,
		MeanCEBurst:             18,
		BackgroundCEPerDIMMYear: 0.02,
		StormsPerFaultyDIMM:     1.2,
		StormDurationDays:       2,
		StormBoost:              8,
		WarningsPerStormDay:     0.6,

		SignaledUEs:      40,
		SuddenUEs:        27,
		UEBurstMean:      4,
		OverTempFraction: 0.06,
		EscalationDays:   3,

		BootIntervalDays:         45,
		FaultyNodeBootMultiplier: 3,

		RetiredDIMMs:  51,
		ScrubFraction: 0.4,
	}
}

// Scale returns a copy with the node population and all absolute counts
// multiplied by f (per-DIMM rates are intensive and stay fixed), preserving
// the event/UE class imbalance. f must be positive.
func (c Config) Scale(f float64) Config {
	if f <= 0 {
		panic(fmt.Sprintf("telemetry: scale factor must be positive, got %v", f))
	}
	c.Nodes = max(1, int(float64(c.Nodes)*f+0.5))
	c.SignaledUEs = max(1, int(float64(c.SignaledUEs)*f+0.5))
	c.SuddenUEs = max(1, int(float64(c.SuddenUEs)*f+0.5))
	c.RetiredDIMMs = int(float64(c.RetiredDIMMs)*f + 0.5)
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.DIMMsPerNode <= 0 {
		return fmt.Errorf("telemetry: population must be positive (%d nodes × %d DIMMs)", c.Nodes, c.DIMMsPerNode)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("telemetry: duration must be positive, got %v", c.Duration)
	}
	var total float64
	for _, s := range c.ManufacturerShares {
		if s < 0 {
			return fmt.Errorf("telemetry: negative manufacturer share")
		}
		total += s
	}
	if total <= 0 {
		return fmt.Errorf("telemetry: manufacturer shares sum to zero")
	}
	if c.SignaledUEs+c.SuddenUEs <= 0 {
		return fmt.Errorf("telemetry: no UEs configured")
	}
	return nil
}
