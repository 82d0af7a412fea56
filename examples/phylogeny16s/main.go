// Phylogeny16s reproduces the §5.3 workflow end to end: an all-against-all
// score-only comparison of 16S-like rRNA sequences on the simulated PiM
// server — host.AllPairs' pair list through the ordinary host.AlignPairs
// pipeline — converted into a distance matrix and a UPGMA guide tree, the
// phylogeny construction the paper motivates the experiment with. (§5.3's
// one-off dataset broadcast is priced where Table 5 is reproduced,
// internal/xp; here each pair travels with its sequences.)
package main

import (
	"fmt"
	"os"
	"strings"

	"pimnw/internal/core"
	"pimnw/internal/datasets"
	"pimnw/internal/host"
	"pimnw/internal/kernel"
	"pimnw/internal/pim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "phylogeny16s:", err)
		os.Exit(1)
	}
}

func run() error {
	spec := datasets.RRNA16S.Scaled(0.0025) // ~24 sequences: printable tree
	seqs := spec.Generate()
	n := len(seqs)
	fmt.Printf("16S-like population: %d sequences of ~%d bases, %d pairwise comparisons\n",
		n, spec.Length, n*(n-1)/2)

	pimCfg := pim.DefaultConfig()
	pimCfg.Ranks = 1
	cfg := host.Config{
		PIM: pimCfg,
		Kernel: kernel.Config{
			Geometry: kernel.DefaultGeometry(),
			Band:     128,
			Params:   core.DefaultParams(),
			Costs:    pim.Asm,
			PIM:      pimCfg,
		},
	}
	rep, results, err := host.AlignPairs(cfg, host.AllPairs(seqs))
	if err != nil {
		return err
	}
	fmt.Printf("score-only kernel: %.3f ms modelled on one rank, %d cells\n\n",
		rep.MakespanSec*1e3, rep.TotalCells)

	// Scores -> normalised distances. A self alignment scores
	// len*Match; the distance is the score deficit per base.
	indices := host.AllPairIndices(n)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	p := core.DefaultParams()
	for _, r := range results {
		pi := indices[r.ID]
		self := float64(len(seqs[pi.I])+len(seqs[pi.J])) / 2 * float64(p.Match)
		d := (self - float64(r.Score)) / self
		if d < 0 {
			d = 0
		}
		dist[pi.I][pi.J], dist[pi.J][pi.I] = d, d
	}

	fmt.Println("UPGMA guide tree (leaf = sequence index, heights = avg distance):")
	fmt.Println(upgma(dist))
	return nil
}

// upgma builds the classic average-linkage hierarchy and renders it as a
// Newick string.
func upgma(d [][]float64) string {
	n := len(d)
	type cluster struct {
		newick string
		size   int
	}
	clusters := map[int]*cluster{}
	for i := 0; i < n; i++ {
		clusters[i] = &cluster{newick: fmt.Sprintf("s%d", i), size: 1}
	}
	// Work on a copy of the distance matrix indexed by live cluster ids.
	dist := map[[2]int]float64{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist[[2]int{i, j}] = d[i][j]
		}
	}
	get := func(a, b int) float64 {
		if a > b {
			a, b = b, a
		}
		return dist[[2]int{a, b}]
	}
	set := func(a, b int, v float64) {
		if a > b {
			a, b = b, a
		}
		dist[[2]int{a, b}] = v
	}
	next := n
	for len(clusters) > 1 {
		// Find the closest pair of live clusters.
		bestA, bestB, bestD := -1, -1, 0.0
		for a := range clusters {
			for b := range clusters {
				if a >= b {
					continue
				}
				if v := get(a, b); bestA < 0 || v < bestD {
					bestA, bestB, bestD = a, b, v
				}
			}
		}
		ca, cb := clusters[bestA], clusters[bestB]
		merged := &cluster{
			newick: fmt.Sprintf("(%s,%s):%.3f", ca.newick, cb.newick, bestD/2),
			size:   ca.size + cb.size,
		}
		// Average-linkage distances to the merged cluster.
		for c := range clusters {
			if c == bestA || c == bestB {
				continue
			}
			v := (get(bestA, c)*float64(ca.size) + get(bestB, c)*float64(cb.size)) /
				float64(ca.size+cb.size)
			set(next, c, v)
		}
		delete(clusters, bestA)
		delete(clusters, bestB)
		clusters[next] = merged
		next++
	}
	for _, c := range clusters {
		return strings.ReplaceAll(c.newick, "),(", "),\n (") + ";"
	}
	return ""
}
