//go:build race

package main

// raceEnabled reports a -race build, whose runtime allocates differently,
// so allocation counts are not checked under it.
const raceEnabled = true
