package fault

import (
	"fmt"

	"mouse/internal/power"
	"mouse/internal/probe"
)

// minWindowJ floors the pre-charged energy window. A window of exactly
// zero is not representable (the harvester requires V_on > V_off), so a
// "crash before the first instruction" schedule charges this much: it is
// orders of magnitude below any instruction's energy, so the first Draw
// still dies in its fetch phase.
const minWindowJ = 1e-21

// Injector is the adversarial power source at the heart of the
// fault-injection engine. It delivers exactly enough energy for the run
// to die at a scheduled point and then recovers:
//
//  1. charging — while the harvester performs the initial charge, the
//     injector supplies generous power, so the buffer quickly reaches
//     V_on holding exactly WindowJ joules of usable energy above V_off.
//  2. armed — during execution it supplies zero power, so the machine
//     runs down the buffer deterministically: the outage lands at the
//     precise instruction (and µ-phase fraction) whose cumulative energy
//     crosses WindowJ.
//  3. recovered — the moment the outage fires, it supplies enough power
//     that the rest of the run completes without another outage.
//
// The mode transitions are driven by the run's own probe events — the
// injector doubles as an observer and must be attached to the runner
// (the engine composes it with any caller observer via probe.Multi):
// OutageEnd of the initial charge arms it, PulseInterrupted trips it.
// Tripping on PulseInterrupted (which every runner emits before its
// non-termination guard) also guarantees the guard sees the recovery
// power, so a window smaller than one instruction's energy is still a
// survivable outage rather than a spurious ErrNonTermination.
type Injector struct {
	probe.Nop

	// WindowJ is the usable energy above V_off the buffer holds when the
	// machine boots — the scheduled crash point in joules.
	WindowJ float64
	// RecoverW is the power supplied while charging and after the trip.
	RecoverW float64

	mode injectorMode
}

type injectorMode int

const (
	modeCharging injectorMode = iota
	modeArmed
	modeRecovered
)

// NewInjector schedules an outage after windowJ joules of demand, with
// recoverW watts of post-outage (and initial-charge) supply. recoverW
// must exceed the workload's peak single-cycle power so the recovered
// run sees no second outage; the sweep engine derives it from the golden
// run's energy schedule.
func NewInjector(windowJ, recoverW float64) *Injector {
	if windowJ < minWindowJ {
		windowJ = minWindowJ
	}
	return &Injector{WindowJ: windowJ, RecoverW: recoverW}
}

// Injector voltage window: the absolute levels are arbitrary (only
// energies matter); the capacitance is sized so the usable window
// between them is exactly WindowJ.
const (
	injVOff = 1.0
	injVOn  = 2.0
)

// Harvester builds the harvester realizing the schedule: a capacitor
// sized so that a full buffer holds exactly WindowJ above the shutdown
// voltage, supplied by the injector itself.
func (inj *Injector) Harvester() *power.Harvester {
	return power.NewHarvester(inj, inj.capacitance(), injVOff, injVOn)
}

// harvesterIn builds the harvester Harvester returns into caller-owned
// storage, so the fork engine reuses one per drain lane instead of
// allocating one per injection point.
func (inj *Injector) harvesterIn(h *power.Harvester, c *power.Capacitor) {
	*c = power.Capacitor{C: inj.capacitance()}
	*h = power.Harvester{Src: inj, Cap: c, VOff: injVOff, VOn: injVOn, VMax: injVOn}
}

// capacitance sizes the buffer so that a full one holds exactly WindowJ
// above the shutdown voltage.
func (inj *Injector) capacitance() float64 {
	return 2 * inj.WindowJ / (injVOn*injVOn - injVOff*injVOff)
}

// Power implements power.Source: zero while armed, RecoverW otherwise.
func (inj *Injector) Power(float64) float64 {
	if inj.mode == modeArmed {
		return 0
	}
	return inj.RecoverW
}

// Name implements power.Source.
func (inj *Injector) Name() string {
	return fmt.Sprintf("fault injector (window %.3g J)", inj.WindowJ)
}

// OutageEnd arms the injector once the initial charge completes; later
// outages (there is exactly one) leave the recovered mode untouched.
func (inj *Injector) OutageEnd(float64, float64) {
	if inj.mode == modeCharging {
		inj.mode = modeArmed
	}
}

// PulseInterrupted trips the injector: the scheduled outage has fired
// and the supply recovers.
func (inj *Injector) PulseInterrupted(probe.Interrupt) {
	inj.mode = modeRecovered
}

// Tripped reports whether the scheduled outage has fired.
func (inj *Injector) Tripped() bool { return inj.mode == modeRecovered }
