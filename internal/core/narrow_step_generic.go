//go:build !amd64

package core

// run computes anti-diagonals st.t+1 … st.tEnd with the portable window
// loop, where there is no assembly routine.
func (st *narrowStep) run() bool { return narrowRunGo(st) }
