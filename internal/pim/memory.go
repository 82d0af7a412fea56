package pim

import "fmt"

// align8 rounds n up to the DPU's 8-byte DMA alignment.
func align8(n int) int { return (n + 7) &^ 7 }

// MRAM models one DPU's 64 MB DRAM bank as capacity arithmetic: a bump
// counter with hard capacity enforcement and no bytes behind it. Alloc
// charges a region that stays live for the launch (the staged
// sequences); Reserve prices one without keeping it (the traceback
// stream of §3.3).
type MRAM struct {
	capacity int
	used     int
}

// NewMRAM creates a bank of the given capacity.
func NewMRAM(capacity int) *MRAM { return &MRAM{capacity: capacity} }

// Alloc charges n bytes (8-byte aligned) to the bank.
func (m *MRAM) Alloc(n int) error {
	if err := m.Reserve(n); err != nil {
		return err
	}
	m.used += align8(n)
	return nil
}

// Used reports the allocated byte count.
func (m *MRAM) Used() int { return m.used }

// Capacity reports the bank size.
func (m *MRAM) Capacity() int { return m.capacity }

// Reserve checks that n more bytes (8-byte aligned) fit the bank without
// charging them: the capacity model of a region the simulator never
// keeps, such as the traceback stream of §3.3. It fails with the same
// overflow error as Alloc and leaves Used unchanged.
func (m *MRAM) Reserve(n int) error {
	if n < 0 {
		return fmt.Errorf("pim: negative MRAM allocation %d", n)
	}
	if m.used+align8(n) > m.capacity {
		return fmt.Errorf("pim: MRAM overflow: %d used + %d requested > %d bank size",
			m.used, n, m.capacity)
	}
	return nil
}

// WRAM models the 64 KB scratchpad as capacity arithmetic: a bump counter
// after the per-tasklet stacks, with no bytes behind it. Exceeding the
// scratchpad is an error the kernel must handle at configuration time —
// this is the constraint that forces the banded formulation and the pool
// geometry of §4.2.3.
type WRAM struct {
	capacity int
	used     int
}

// NewWRAM creates a scratchpad, reserving stacks bytes for tasklet stacks.
func NewWRAM(capacity, stacks int) (*WRAM, error) {
	if stacks > capacity {
		return nil, fmt.Errorf("pim: tasklet stacks (%d B) exceed WRAM (%d B)", stacks, capacity)
	}
	return &WRAM{capacity: capacity, used: stacks}, nil
}

// Alloc reserves n bytes (8-byte aligned).
func (w *WRAM) Alloc(n int) error {
	if n < 0 {
		return fmt.Errorf("pim: negative WRAM allocation %d", n)
	}
	if w.used+align8(n) > w.capacity {
		return fmt.Errorf("pim: WRAM overflow: %d used + %d requested > %d scratchpad",
			w.used, n, w.capacity)
	}
	w.used += align8(n)
	return nil
}

// Used reports the allocated byte count, stacks included.
func (w *WRAM) Used() int { return w.used }

// Free reports the remaining bytes.
func (w *WRAM) Free() int { return w.capacity - w.used }

// DPU bundles the per-DPU state the kernel and host interact with.
type DPU struct {
	ID   int // global DPU index: rank*64 + member
	MRAM *MRAM
	// Fault is the fault injected into this DPU's next kernel launch
	// (FaultNone on a healthy fabric). The host stamps it from a
	// FaultModel before launching; the kernel applies it.
	Fault Fault
}

// NewDPU builds a DPU with an MRAM bank per the configuration.
func (c Config) NewDPU(id int) *DPU {
	return &DPU{ID: id, MRAM: NewMRAM(c.MRAM)}
}

// Rank returns the rank this DPU belongs to.
func (d *DPU) Rank() int { return d.ID / DPUsPerRank }
