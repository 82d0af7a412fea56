package pim

import "fmt"

// align8 rounds n up to the DPU's 8-byte DMA alignment.
func align8(n int) int { return (n + 7) &^ 7 }

// MRAM models one DPU's 64 MB DRAM bank: a bump allocator with hard
// capacity enforcement. Only Alloc'd regions (the staged sequences) are
// real bytes; Reserve prices a region without materialising it. The
// backing array grows on demand so a 2560-DPU system does not reserve
// 160 GB of host memory up front.
type MRAM struct {
	capacity int
	used     int
	buf      []byte
}

// NewMRAM creates a bank of the given capacity.
func NewMRAM(capacity int) *MRAM { return &MRAM{capacity: capacity} }

// Alloc reserves n bytes (8-byte aligned) and returns their offset.
func (m *MRAM) Alloc(n int) (int, error) {
	if err := m.Reserve(n); err != nil {
		return 0, err
	}
	off := m.used
	m.used += align8(n)
	if m.used > len(m.buf) {
		grown := make([]byte, m.used+m.used/2)
		copy(grown, m.buf)
		m.buf = grown
	}
	return off, nil
}

// Bytes returns the live window [off, off+n) of the bank.
func (m *MRAM) Bytes(off, n int) []byte {
	if off < 0 || n < 0 || off+n > m.used {
		panic(fmt.Sprintf("pim: MRAM access [%d,%d) outside allocated %d bytes", off, off+n, m.used))
	}
	return m.buf[off : off+n]
}

// Used reports the allocated byte count.
func (m *MRAM) Used() int { return m.used }

// Capacity reports the bank size.
func (m *MRAM) Capacity() int { return m.capacity }

// Reserve checks that n more bytes (8-byte aligned) fit the bank without
// materialising them: the capacity model of a region the simulator never
// reads back, such as the traceback stream of §3.3. It fails with the same
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

// Reset frees every allocation (the host reuses banks between batches).
// The backing array is kept to avoid re-growing; stale bytes stay in it,
// so writers own the windows they allocate (seq.PackInto zeroes its own).
func (m *MRAM) Reset() { m.used = 0 }

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

// Reset readies a DPU for reuse as DPU id on a healthy fabric: the bank is
// emptied (its backing array kept) and the fault cleared. Callers that
// pool DPUs stamp the launch's Fault after Reset.
func (d *DPU) Reset(id int) {
	d.ID = id
	d.MRAM.Reset()
	d.Fault = Fault{}
}

// Rank returns the rank this DPU belongs to.
func (d *DPU) Rank() int { return d.ID / DPUsPerRank }
