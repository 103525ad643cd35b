// Package controller implements MOUSE's memory controller: the only
// sequential logic in the machine (Section IV of the paper). It fetches
// instructions, broadcasts them to the data tiles, and maintains the
// architectural state — a program counter and the active-column
// configuration — across unexpected power outages.
//
// Correctness under interruption follows the paper's Section V-B:
//
//   - The PC is duplicated (PC-A / PC-B) with a parity bit selecting the
//     valid copy. The next PC is always written to the *invalid* register,
//     and only then is the parity bit flipped (Fig. 7). A write can
//     therefore never corrupt the currently valid PC.
//   - The most recent Activate Columns instruction is stored in a
//     duplicated register pair handled identically.
//   - On restart, the controller re-issues the stored Activate Columns
//     instruction and then resumes fetching at the valid PC, which
//     re-performs the instruction that may have been cut short. Because
//     every instruction is idempotent (Section V-A), this is safe.
//
// The package separates Persistent (non-volatile registers, which survive
// a simulated outage) from everything else (volatile, reconstructed on
// restart), so the crash-consistency semantics of non-volatile hardware
// are modelled explicitly rather than inherited from the Go runtime.
package controller

import (
	"errors"
	"fmt"
	"slices"

	"mouse/internal/array"
	"mouse/internal/isa"
)

// Store supplies instructions by address, playing the role of the
// instruction tiles. Fetch reports ok=false one past the last instruction
// (program complete).
type Store interface {
	Fetch(pc uint64) (in isa.Instruction, ok bool)
}

// ProgramStore adapts an isa.Program into a Store.
type ProgramStore isa.Program

// Fetch returns the instruction at pc.
func (p ProgramStore) Fetch(pc uint64) (isa.Instruction, bool) {
	if pc >= uint64(len(p)) {
		return isa.Instruction{}, false
	}
	return p[pc], true
}

// Repeat wraps a store so the program runs `times` passes back to back
// (the paper's deployment loop: "instructions are performed in
// sequential order one by one until the program repeats", Section IV-B).
// The PC keeps counting up across passes, so the dual-PC protocol and
// restart semantics are untouched; pass 0 for an endless loop.
func Repeat(s Store, times uint64) Store {
	return &repeatStore{inner: s, times: times, length: storeLen(s)}
}

type repeatStore struct {
	inner  Store
	times  uint64
	length uint64
}

func storeLen(s Store) uint64 {
	// Binary-search the first failing fetch (stores are dense from 0).
	if _, ok := s.Fetch(0); !ok {
		return 0
	}
	lo, hi := uint64(1), uint64(2)
	for {
		if _, ok := s.Fetch(hi); !ok {
			break
		}
		lo, hi = hi, hi*2
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if _, ok := s.Fetch(mid); ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Fetch maps the monotonically increasing PC into the wrapped program.
func (r *repeatStore) Fetch(pc uint64) (isa.Instruction, bool) {
	if r.length == 0 {
		return isa.Instruction{}, false
	}
	if r.times != 0 && pc >= r.times*r.length {
		return isa.Instruction{}, false
	}
	return r.inner.Fetch(pc % r.length)
}

// Sensor models the non-volatile input buffer of the attached sensor
// (Section IV-E): it exposes a valid bit that stays zero while the sensor
// is (re)filling the buffer, e.g. after a power outage corrupted a
// transfer.
type Sensor interface {
	Valid() bool
}

// AlwaysValidSensor is a Sensor whose data is always ready.
type AlwaysValidSensor struct{}

// Valid always reports true.
func (AlwaysValidSensor) Valid() bool { return true }

// Persistent is the controller's non-volatile register file: the five
// non-array components of Section IV-A that must survive power loss. A
// simulated outage preserves exactly this struct and nothing else.
type Persistent struct {
	// PCA and PCB are the duplicated program counter registers; Parity
	// selects the valid one (0 → PCA, 1 → PCB).
	PCA, PCB uint64
	Parity   uint8

	// ActA and ActB duplicate the most recent Activate Columns
	// instruction; ActParity selects the valid copy and ActSet reports
	// whether any has been stored yet.
	ActA, ActB isa.Instruction
	ActParity  uint8
	ActSet     bool

	// SensorPC is the dedicated register holding the PC of the first
	// instruction of the current sensor-read sequence (Section IV-E).
	SensorPC    uint64
	SensorPCSet bool
}

// PC returns the currently valid program counter.
func (nv *Persistent) PC() uint64 {
	if nv.Parity == 0 {
		return nv.PCA
	}
	return nv.PCB
}

// setNextPC writes pc into the invalid PC register. It does not commit.
func (nv *Persistent) setNextPC(pc uint64) {
	if nv.Parity == 0 {
		nv.PCB = pc
	} else {
		nv.PCA = pc
	}
}

// commitPC flips the parity bit, making the previously written register
// valid. This is the single atomic commit point of an instruction.
func (nv *Persistent) commitPC() { nv.Parity ^= 1 }

// Act returns the currently valid Activate Columns register.
func (nv *Persistent) Act() (isa.Instruction, bool) {
	if !nv.ActSet {
		return isa.Instruction{}, false
	}
	if nv.ActParity == 0 {
		return nv.ActA, true
	}
	return nv.ActB, true
}

// setNextAct writes in into the invalid ACT register without committing.
func (nv *Persistent) setNextAct(in isa.Instruction) {
	if nv.ActParity == 0 {
		nv.ActB = in
	} else {
		nv.ActA = in
	}
}

// commitAct flips the ACT parity (and marks the register pair live).
func (nv *Persistent) commitAct() {
	nv.ActParity ^= 1
	nv.ActSet = true
}

// equal reports whether two register files hold identical contents,
// both copies of each duplicated register included.
func (nv *Persistent) equal(o *Persistent) bool {
	return nv.PCA == o.PCA && nv.PCB == o.PCB && nv.Parity == o.Parity &&
		sameInstr(&nv.ActA, &o.ActA) && sameInstr(&nv.ActB, &o.ActB) &&
		nv.ActParity == o.ActParity && nv.ActSet == o.ActSet &&
		nv.SensorPC == o.SensorPC && nv.SensorPCSet == o.SensorPCSet
}

// sameInstr compares two instructions field by field (the column list
// makes isa.Instruction incomparable with ==).
func sameInstr(a, b *isa.Instruction) bool {
	return a.Kind == b.Kind && a.Gate == b.Gate && a.In == b.In && a.Out == b.Out &&
		a.Tile == b.Tile && a.Row == b.Row && a.Rot == b.Rot && a.Value == b.Value &&
		a.Broadcast == b.Broadcast && slices.Equal(a.Cols, b.Cols) &&
		a.Ranged == b.Ranged && a.Start == b.Start && a.Count == b.Count && a.Stride == b.Stride
}

// Phase enumerates the µ-steps of one instruction cycle, in execution
// order. Power can fail between (or during) any of them; tests
// exhaustively interrupt each one.
type Phase int

const (
	// PhaseFetch reads the instruction at the valid PC.
	PhaseFetch Phase = iota
	// PhaseExecute broadcasts the instruction and performs it in the
	// array (the interruptible datapath work).
	PhaseExecute
	// PhaseWriteActReg stores an ACT instruction into the invalid ACT
	// register (ACT instructions only).
	PhaseWriteActReg
	// PhaseCommitActReg flips the ACT parity bit (ACT instructions only).
	PhaseCommitActReg
	// PhaseWritePC writes PC+1 into the invalid PC register.
	PhaseWritePC
	// PhaseCommitPC flips the PC parity bit, completing the instruction.
	PhaseCommitPC
	// PhaseDone marks an uninterrupted cycle.
	PhaseDone
)

func (p Phase) String() string {
	switch p {
	case PhaseFetch:
		return "fetch"
	case PhaseExecute:
		return "execute"
	case PhaseWriteActReg:
		return "write-act-reg"
	case PhaseCommitActReg:
		return "commit-act-reg"
	case PhaseWritePC:
		return "write-pc"
	case PhaseCommitPC:
		return "commit-pc"
	case PhaseDone:
		return "done"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// ErrPowerFailure is returned by StepWithFailure when the simulated
// outage point is reached.
var ErrPowerFailure = errors.New("controller: power failure")

// Controller drives a Machine through a program.
type Controller struct {
	// NV is the non-volatile register file. It is exported so the
	// simulator can carry it — and only it — across a simulated outage.
	NV Persistent

	store  Store
	mach   *array.Machine
	sensor Sensor

	// SensorWindow optionally marks [Start, End) as the PC range that
	// performs the sensor-buffer transfer; see Restart.
	SensorWindow struct {
		Start, End uint64
		Enabled    bool
	}

	// Statistics (volatile; informational only).
	Executed   uint64 // completed instructions
	Reexecuted uint64 // instructions re-performed after a restart
	Restarts   uint64
}

// New creates a controller over the given instruction store and machine.
func New(store Store, mach *array.Machine) *Controller {
	return &Controller{store: store, mach: mach, sensor: AlwaysValidSensor{}}
}

// SetSensor attaches a sensor model used by the restart protocol.
func (c *Controller) SetSensor(s Sensor) { c.sensor = s }

// Machine returns the attached datapath.
func (c *Controller) Machine() *array.Machine { return c.mach }

// CopyStateFrom overwrites c's run state with src's without allocating:
// the non-volatile registers and the machine's cells, activation
// latches and memory buffer. Together these determine the rest of a run,
// so a copied controller continues exactly as src would. Both must run
// the same program on the same geometry (two controllers built by one
// constructor); the store, sensor and informational counters stay c's
// own. Copied ACT registers share their column lists with src, which is
// safe because instructions are never mutated in place.
func (c *Controller) CopyStateFrom(src *Controller) {
	c.NV = src.NV
	c.mach.CopyStateFrom(src.mach)
}

// StateEqual reports whether c and o hold identical run state (the
// state CopyStateFrom copies): from equal states, the same program runs
// identical suffixes.
func (c *Controller) StateEqual(o *Controller) bool {
	return c.NV.equal(&o.NV) && c.mach.StateEqual(o.mach)
}

// Peek returns the instruction the next Step will execute, without side
// effects. ok=false means the program is complete. The simulator uses it
// to price the upcoming cycle before deciding whether the energy buffer
// can pay for it.
func (c *Controller) Peek() (isa.Instruction, bool) {
	return c.store.Fetch(c.NV.PC())
}

// Step executes one complete instruction cycle. It returns done=true when
// the PC has moved past the final instruction.
func (c *Controller) Step() (done bool, err error) {
	return c.step(PhaseDone, nil)
}

// StepWithFailure executes one cycle but loses power at the given phase:
// all phases before failAt complete, failAt itself is performed partially
// (per partial, where meaningful), and ErrPowerFailure is returned. The
// caller is expected to invoke Restart before stepping again.
func (c *Controller) StepWithFailure(failAt Phase, partial *array.Partial) error {
	_, err := c.step(failAt, partial)
	return err
}

func (c *Controller) step(failAt Phase, partial *array.Partial) (bool, error) {
	// PhaseFetch.
	if failAt == PhaseFetch {
		// Fetch is a read; dying during it has no architectural effect.
		return false, ErrPowerFailure
	}
	pc := c.NV.PC()
	in, ok := c.store.Fetch(pc)
	if !ok {
		return true, nil
	}

	// PhaseExecute.
	if failAt == PhaseExecute {
		// The datapath operation is cut short (partial describes how
		// far it got); architectural state is untouched.
		if err := c.mach.ExecPartial(in, partial); err != nil {
			return false, err
		}
		return false, ErrPowerFailure
	}
	if err := c.mach.Exec(in); err != nil {
		return false, err
	}

	// PhaseWriteActReg / PhaseCommitActReg (ACT instructions only). For
	// other instructions these failure points collapse to "power died
	// between execute and the PC update".
	if in.Kind != isa.KindAct && (failAt == PhaseWriteActReg || failAt == PhaseCommitActReg) {
		return false, ErrPowerFailure
	}
	if in.Kind == isa.KindAct {
		if failAt == PhaseWriteActReg {
			// Die mid-write: the invalid register holds garbage. Model
			// the garbage explicitly; it must never be read before being
			// rewritten.
			c.NV.setNextAct(isa.Instruction{Kind: isa.KindAct, Ranged: true, Start: 0x3FF, Count: 1, Stride: 0x3FF})
			return false, ErrPowerFailure
		}
		c.NV.setNextAct(in)
		if failAt == PhaseCommitActReg {
			return false, ErrPowerFailure
		}
		c.NV.commitAct()
	}

	// PhaseWritePC.
	if failAt == PhaseWritePC {
		// Die mid-write: the invalid PC register holds garbage.
		c.NV.setNextPC(^uint64(0))
		return false, ErrPowerFailure
	}
	c.NV.setNextPC(pc + 1)

	// PhaseCommitPC.
	if failAt == PhaseCommitPC {
		return false, ErrPowerFailure
	}
	c.NV.commitPC()
	c.Executed++

	done := func() bool { _, more := c.store.Fetch(pc + 1); return !more }()
	return done, nil
}

// PowerFail models the instant of an unexpected outage: every volatile
// element (tile activation latches, memory buffer, in-flight decode)
// vanishes; only c.NV persists.
func (c *Controller) PowerFail() {
	c.mach.LoseVolatile()
}

// Restart models the reboot sequence of Section IV-D once the energy
// buffer has recharged:
//
//  1. Re-issue the stored Activate Columns instruction, restoring the
//     peripheral column latches (the Restore cost).
//  2. If the valid PC lies inside the sensor-read window and the sensor's
//     valid bit is clear (the input transfer was corrupted by the
//     outage), rewind the PC to the start of the window via the dedicated
//     sensor PC register (Section IV-E).
//
// The next Step then re-fetches the instruction at the valid PC,
// re-performing whatever the outage may have cut short (the Dead cost).
func (c *Controller) Restart() error {
	c.Restarts++
	if act, ok := c.NV.Act(); ok {
		if err := c.mach.Activate(act); err != nil {
			return fmt.Errorf("controller: restoring active columns: %w", err)
		}
	}
	if c.SensorWindow.Enabled {
		pc := c.NV.PC()
		if pc >= c.SensorWindow.Start && pc < c.SensorWindow.End && !c.sensor.Valid() {
			// Rewind through the regular double-buffered protocol.
			c.NV.setNextPC(c.SensorWindow.Start)
			c.NV.commitPC()
		}
	}
	c.Reexecuted++
	return nil
}

// Run executes the program to completion under continuous power.
func (c *Controller) Run() error {
	for {
		done, err := c.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}
