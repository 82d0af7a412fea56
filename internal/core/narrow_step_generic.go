//go:build !amd64

package core

// narrowStepWords runs the narrow engine's whole-word step over [gA, gB];
// on platforms without an assembly kernel it is the portable SWAR loop.
func narrowStepWords(st *narrowStep, gA, gB int) uint64 {
	return narrowStepWordsGo(st, gA, gB, ^uint64(0))
}

// narrowStepWordsTB is narrowStepWords recording traceback nibbles into the
// lane-indexed row st.bt.
func narrowStepWordsTB(st *narrowStep, gA, gB int) uint64 {
	return narrowStepWordsGoTB(st, gA, gB, ^uint64(0))
}
