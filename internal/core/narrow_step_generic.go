//go:build !amd64

package core

// narrowStepWords runs the narrow engine's interior word loop; on
// platforms without an assembly kernel it is the portable SWAR loop.
func narrowStepWords(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, nsub []uint64,
	gA, gB, d, dd int, eV, oeV, nmV, gbV uint64) uint64 {
	return narrowStepWordsGo(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, nsub,
		gA, gB, d, dd, eV, oeV, nmV, gbV)
}

// narrowStepWordsTB is narrowStepWords recording traceback nibbles into the
// lane-indexed row bt.
func narrowStepWordsTB(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, nsub []uint64, bt []byte,
	gA, gB, d, dd int, eV, oeV, nmV, gbV uint64) uint64 {
	return narrowStepWordsGoTB(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, nsub, bt,
		gA, gB, d, dd, eV, oeV, nmV, gbV)
}
