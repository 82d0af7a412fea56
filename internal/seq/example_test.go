package seq_test

import (
	"fmt"
	"math/rand"

	"pimnw/internal/seq"
)

func ExampleFromString() {
	// Ambiguous bases resolve deterministically under a seeded RNG
	// (the paper's §4.1.1 policy).
	rng := rand.New(rand.NewSource(1))
	s, _ := seq.FromString("ACNNGT", rng)
	fmt.Println(len(s))
	// Output: 6
}

func ExampleMutator_Apply() {
	rng := rand.New(rand.NewSource(7))
	ref := seq.Random(rng, 30)
	read := seq.UniformErrors(0.1).Apply(rng, ref)
	fmt.Println(len(ref) > 0, len(read) > 0)
	// Output: true true
}

func ExampleSeq_ReverseComplement() {
	s := seq.MustFromString("AACGT")
	fmt.Println(s.ReverseComplement())
	// Output: ACGTT
}
