package core

import (
	"pimnw/internal/cigar"
	"pimnw/internal/seq"
)

// Static banded Gotoh (§3.3): only cells with |i−j| ≤ w/2 are evaluated,
// the formulation minimap2's KSW2 kernel implements and the heuristic the
// paper's Table 1 compares the adaptive band against. Complexity is
// O(w·(m+n)) time; the optimal alignment is found only when the optimal
// path stays within the band.

// staticHalf returns the half-width and validates the band size.
func staticHalf(w int) int {
	if w < 2 {
		w = 2
	}
	return w / 2
}

// StaticBandScore computes the static-banded affine score. w is the band
// size: row i evaluates the cells |i−j| ≤ w/2. If the terminal cell lies
// outside the band (||m|−|n|| > w/2) the alignment fails: InBand=false
// and Score=NegInf.
func StaticBandScore(a, b seq.Seq, p Params, w int) Result {
	s := GetScratch()
	res := s.staticBand(a, b, p, w, false)
	PutScratch(s)
	return res
}

// StaticBandAlign additionally performs the traceback; memory is
// O(m·w) traceback bytes.
func StaticBandAlign(a, b seq.Seq, p Params, w int) Result {
	s := GetScratch()
	res := s.staticBand(a, b, p, w, true)
	PutScratch(s)
	return res
}

// StaticBandScore is the explicit-scratch form: zero engine allocations
// once s has warmed to the row width.
func (s *Scratch) StaticBandScore(a, b seq.Seq, p Params, w int) Result {
	return s.staticBand(a, b, p, w, false)
}

// StaticBandAlign is the explicit-scratch traceback form; only the
// returned CIGAR is allocated.
func (s *Scratch) StaticBandAlign(a, b seq.Seq, p Params, w int) Result {
	return s.staticBand(a, b, p, w, true)
}

func (s *Scratch) staticBand(a, b seq.Seq, p Params, w int, traceback bool) Result {
	m, n := len(a), len(b)
	h := staticHalf(w)
	res := Result{Steps: m}
	if m-n > h || n-m > h {
		res.Score = NegInf
		return res
	}
	res.InBand = true
	if m == 0 && n == 0 {
		return res
	}
	if m == 0 || n == 0 {
		res.Score = -p.GapCost(m + n)
		if traceback {
			var c cigar.Cigar
			c = c.Append(cigar.Ins, m)
			c = c.Append(cigar.Del, n)
			res.Cigar = c
		}
		return res
	}

	width := 2*h + 1 // traceback row width: band index k = j - i + h
	var bt []uint8
	if traceback {
		bt = s.btBuf((m + 1) * width)
		for j := 1; j <= h && j <= n; j++ {
			bt[j+h] = MakeBTNibble(btFromD, false, j > 1)
		}
		for i := 1; i <= h && i <= m; i++ {
			bt[i*width+h-i] = MakeBTNibble(btFromI, i > 1, false)
		}
	}

	// Query profile: prof[v*n+j-1] is the substitution score of base value
	// v against b[j-1]. The row loops read one int32 instead of comparing
	// bases, the precomputation the paper credits for KSW2's speed (§5.1).
	s.prof = growI32(s.prof, seq.NumBases*n)
	for v := seq.Base(0); v < seq.NumBases; v++ {
		row := s.prof[int(v)*n : int(v+1)*n]
		for j, bv := range b {
			row[j] = p.Sub(v, bv)
		}
	}

	s.hrow = growI32(s.hrow, n+1)
	s.icol = growI32(s.icol, n+1)
	hrow := s.hrow
	icol := s.icol
	for j := range hrow {
		hrow[j] = NegInf
		icol[j] = NegInf
	}
	hrow[0] = 0
	for j := 1; j <= h && j <= n; j++ {
		hrow[j] = -p.GapCost(j)
	}
	openCost, ext := p.GapOpen+p.GapExt, p.GapExt

	// Clip certificate: paths leave the |i−j| ≤ h corridor only through an
	// edge cell — horizontally off the upper edge (i, i+h), vertically (or
	// diagonally) off the lower edge (i, i−h). Bound every such path by
	// the edge cell's score plus the best it could still collect outside;
	// if no edge potential ever beats the final score, the banded result
	// is provably optimal.
	maxPot := NegInf
	if h+1 <= n {
		// Row 0's upper edge (0, h) is exit-capable too.
		if pot := hrow[h] + escapeBound(p, m, n-h); pot > maxPot {
			maxPot = pot
		}
	}

	for i := 1; i <= m; i++ {
		jlo := i - h
		if jlo < 1 {
			jlo = 1
		}
		jhi := i + h
		if jhi > n {
			jhi = n
		}
		diag := hrow[jlo-1]
		hleft := NegInf
		if i <= h {
			hrow[0] = -p.GapCost(i)
			icol[0] = hrow[0]
			hleft = hrow[0]
		}
		d := NegInf
		// Row i's band cells j = jlo..jhi, indexed from 0; hr[k] still
		// holds H(i-1, jlo+k) until the cell overwrites it.
		hr := hrow[jlo : jhi+1]
		ic := icol[jlo:][:len(hr)]
		sub := s.prof[int(a[i-1]&3)*n+jlo-1:][:len(hr)]
		if traceback {
			btRow := bt[i*width+jlo-i+h:][:len(hr)]
			for k := range hr {
				iUp := hr[k] - openCost
				iExt := ic[k]-ext >= iUp
				iv := max2(ic[k]-ext, iUp)
				dLeft := hleft - openCost
				dExt := d-ext >= dLeft
				d = max2(d-ext, dLeft)
				origin := btDiagMismatch
				if sub[k] == p.Match {
					origin = btDiagMatch
				}
				best := diag + sub[k]
				if iv > best {
					best = iv
					origin = btFromI
				}
				if d > best {
					best = d
					origin = btFromD
				}
				btRow[k] = MakeBTNibble(origin, iExt, dExt)
				diag = hr[k]
				hr[k] = best
				ic[k] = iv
				hleft = best
			}
		} else {
			for k := range hr {
				iv := ic[k] - ext
				if up := hr[k] - openCost; up > iv {
					iv = up
				}
				d -= ext
				if left := hleft - openCost; left > d {
					d = left
				}
				best := diag + sub[k]
				if iv > best {
					best = iv
				}
				if d > best {
					best = d
				}
				diag = hr[k]
				hr[k] = best
				ic[k] = iv
				hleft = best
			}
		}
		res.Cells += int64(len(hr))
		// Edge potentials of row i (see the certificate above).
		if j := i + h; j+1 <= n && hrow[j] > NegInf/2 {
			if pot := hrow[j] + escapeBound(p, m-i, n-j); pot > maxPot {
				maxPot = pot
			}
		}
		if j := i - h; j >= 0 && i+1 <= m && hrow[j] > NegInf/2 {
			if pot := hrow[j] + escapeBound(p, m-i, n-j); pot > maxPot {
				maxPot = pot
			}
		}
	}
	res.Score = hrow[n]
	if res.Score <= NegInf/2 {
		// The corner is inside the band geometrically but no path reached it.
		res.InBand = false
		res.Score = NegInf
		return res
	}
	res.Clipped = maxPot > res.Score
	if traceback {
		res.Cigar = walkBT(m, n, func(i, j int) uint8 {
			return bt[i*width+j-i+h]
		})
	}
	return res
}
