package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"

	"pimnw/internal/core"
	"pimnw/internal/verify"
)

// wireResult is one NDJSON response line, as cmd/alignd writes it.
type wireResult struct {
	ID         int      `json:"id"`
	Score      int32    `json:"score"`
	InBand     bool     `json:"in_band"`
	Cigar      string   `json:"cigar"`
	Status     string   `json:"status"`
	Trusted    bool     `json:"trusted"`
	Provenance string   `json:"provenance"`
	Backend    string   `json:"backend"`
	Cached     bool     `json:"cached"`
	Degraded   []string `json:"degraded"`
	Err        string   `json:"error"`
}

// traceIDLen is the fixed width of every X-Trace-Id the benchmark sends.
// The daemon stamps the ID on each result line; with one width for all
// requests a response can be compared byte for byte against the first one
// seen for its body after swapping the ID for the reference's.
const traceIDLen = 12

// traceID is the request's span ID as sent in X-Trace-Id. 'q' occurs in no
// field the daemon writes, so the ID cannot collide with payload bytes.
func traceID(n int64) string { return fmt.Sprintf("q%0*d", traceIDLen-1, n) }

var refTraceID = []byte(traceID(0))

// normalize rewrites a response to the reference trace ID. On a fleet it
// also blanks the backend names: which server computes a pair depends on
// where the linger timer happened to cut the micro-batches, so placement
// legitimately differs between two answers to one body — the answers
// themselves may not.
func normalize(resp []byte, tid string, fleet bool) []byte {
	out := bytes.ReplaceAll(resp, []byte(tid), refTraceID)
	if fleet {
		out = backendField.ReplaceAll(out, []byte(`"backend":"-"`))
	}
	return out
}

var backendField = regexp.MustCompile(`"backend":"[a-z0-9]*"`)

// checkFirst is the full check every body's first response (per cache
// phase) gets: one result per pair, IDs in submission order, no trailing
// error line, no degradation label, every CIGAR re-derived against its
// pair by verify.CheckPair, bulk answers carrying a CIGAR whenever they
// claim to be in band, and the cached marker on exactly the responses
// that must come from the cache.
func checkFirst(w *workload, b *body, resp []byte, wantCached bool) ([]wireResult, error) {
	lines := bytes.Split(bytes.TrimRight(resp, "\n"), []byte("\n"))
	if len(lines) != len(b.pairs) {
		return nil, fmt.Errorf("%d result lines for %d pairs", len(lines), len(b.pairs))
	}
	out := make([]wireResult, len(lines))
	for i, ln := range lines {
		r := &out[i]
		if err := json.Unmarshal(ln, r); err != nil {
			return nil, fmt.Errorf("line %d: %v", i, err)
		}
		switch {
		case r.Err != "":
			return nil, fmt.Errorf("line %d: error line: %s", i, r.Err)
		case r.ID != b.pairs[i].ID:
			return nil, fmt.Errorf("line %d: id %d out of submission order", i, r.ID)
		case len(r.Degraded) > 0:
			return nil, fmt.Errorf("line %d: degraded %v", i, r.Degraded)
		case r.Cached != wantCached:
			return nil, fmt.Errorf("line %d: cached=%v, want %v", i, r.Cached, wantCached)
		case r.Trusted && r.Status == "":
			return nil, fmt.Errorf("line %d: trusted result without a status", i)
		}
		p := b.pairs[i]
		if r.Cigar != "" {
			if err := verify.CheckPair(p.A, p.B, core.DefaultParams(), r.Score, r.Cigar); err != nil {
				return nil, fmt.Errorf("line %d: %v", i, err)
			}
		} else if w.class == "bulk" && r.InBand && r.Status != "degraded-score-only" {
			return nil, fmt.Errorf("line %d: bulk result in band without a CIGAR", i)
		}
	}
	return out, nil
}

// sameAnswer compares what two result lines say about the alignment,
// leaving out placement (backend) and delivery (cached).
func sameAnswer(a, b wireResult) bool {
	return a.ID == b.ID && a.Score == b.Score && a.InBand == b.InBand && a.Cigar == b.Cigar &&
		a.Status == b.Status && a.Trusted == b.Trusted && a.Provenance == b.Provenance
}

// answersDigest hashes what the daemon answered for a pool — id, score,
// band flag, CIGAR, status, provenance of every first response — leaving
// out placement (backend) and delivery (cached, trace ID). Two workloads
// that offer the same bodies must agree on it whatever fabric served them.
func answersDigest(first [][]wireResult) string {
	h := fnv.New64a()
	for _, body := range first {
		for _, r := range body {
			fmt.Fprintf(h, "%d %d %t %s %s %s\n", r.ID, r.Score, r.InBand, r.Cigar, r.Status, r.Provenance)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// trustedShare is the share of first-response results carrying a trusted
// status. It depends on the seed alone.
func trustedShare(first [][]wireResult) float64 {
	var trusted, total int
	for _, body := range first {
		for _, r := range body {
			total++
			if r.Trusted {
				trusted++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(trusted) / float64(total)
}

// checkOracle re-scores a seed-fixed sample of the pool with the exact
// full-matrix Gotoh and returns one message per violation: a trusted
// result must equal the optimum; an untrusted one must say so in its
// status and may only fall below it.
func checkOracle(w *workload, pool []*body, first [][]wireResult, seed int64) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x6f7261636c65))
	total := len(pool) * w.pairs
	var bad []string
	for _, k := range rng.Perm(total)[:min(w.oracle, total)] {
		bi, pi := k/w.pairs, k%w.pairs
		if first[bi] == nil {
			continue // the body never got an answer; already counted as failed
		}
		p, r := pool[bi].pairs[pi], first[bi][pi]
		exact := core.GotohScore(p.A, p.B, core.DefaultParams()).Score
		switch {
		case r.Trusted && r.Score != exact:
			bad = append(bad, fmt.Sprintf("body %d pair %d: trusted score %d, exact %d (%s)", bi, pi, r.Score, exact, r.Status))
		case !r.Trusted && (r.Status == "ok" || r.Status == ""):
			bad = append(bad, fmt.Sprintf("body %d pair %d: untrusted result labelled %q", bi, pi, r.Status))
		case !r.Trusted && r.InBand && r.Score > exact:
			bad = append(bad, fmt.Sprintf("body %d pair %d: untrusted score %d above exact %d", bi, pi, r.Score, exact))
		}
	}
	return bad
}
