//go:build !amd64

package core

// haveAVX2 is false where there is no assembly routine.
func haveAVX2() bool { return false }

// run computes anti-diagonals st.t+1 … st.tEnd with the portable window
// loop, where there is no assembly routine.
func (st *narrowStep) run() bool { return narrowRunGo(st) }
