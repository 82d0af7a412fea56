//go:build !amd64

package core

// narrowArgs is empty, and bind has nothing to bind, where there is no
// assembly kernel.
type narrowArgs struct{}

func (st *narrowStep) bind() {}

// kernel runs words [gLo, gHi] through the portable SWAR step, the first
// word under keepLo and the last under keepHi.
func (st *narrowStep) kernel(gLo, gHi int, keepLo, keepHi uint64, traceback bool) uint64 {
	return narrowStepWordsGo(st, gLo, gHi, keepLo, keepHi, traceback)
}
