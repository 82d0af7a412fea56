package pimnw_test

// ci/trajectory.ndjson is the committed performance trajectory: one row
// per change that claimed or recorded end-to-end benchmark medians, with
// the parent and change medians as that change's notes quoted them.
// TestTrajectoryRows keeps the file well-formed against BENCHMARK.json and
// checks each row but the newest against the git history;
// TestTrajectoryLastRowIsAncestor checks the newest row's commit. The git
// checks skip where there is no history to read.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

type trajectoryRow struct {
	PR      int                           `json:"pr"`
	SHA     string                        `json:"sha"`
	Kind    string                        `json:"kind"`
	Claim   string                        `json:"claim"`
	Medians map[string]map[string]float64 `json:"medians"`
	Note    string                        `json:"note"`
}

var shaPattern = regexp.MustCompile(`^[0-9a-f]{7,40}$`)

func TestTrajectoryRows(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics[m.Name] = true
	}

	f, err := os.Open("ci/trajectory.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	lastPR := 0
	var rows []trajectoryRow
	for line := 1; sc.Scan(); line++ {
		var r trajectoryRow
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		rows = append(rows, r)
		if r.PR <= lastPR {
			t.Errorf("line %d: pr %d does not follow pr %d", line, r.PR, lastPR)
		}
		lastPR = r.PR
		if !shaPattern.MatchString(r.SHA) {
			t.Errorf("pr %d: sha %q is not 7-40 lowercase hex characters", r.PR, r.SHA)
		}
		for key, m := range r.Medians {
			w, metric, ok := strings.Cut(key, "/")
			if !ok || !workloads[w] || !metrics[metric] {
				t.Errorf("pr %d: %q is not <workload>/<metric> of BENCHMARK.json", r.PR, key)
			}
			_, parent := m["parent"]
			_, change := m["change"]
			if !parent || !change || len(m) != 2 {
				t.Errorf("pr %d: %s = %v, want exactly a parent and a change median", r.PR, key, m)
			}
		}
		switch r.Kind {
		case "gain":
			if _, ok := r.Medians[r.Claim]; !ok {
				t.Errorf("pr %d: claimed metric %q has no medians", r.PR, r.Claim)
			}
		case "none":
			if r.Claim != "" {
				t.Errorf("pr %d: claim %q on a row that claims no gain", r.PR, r.Claim)
			}
		default:
			t.Errorf("pr %d: kind %q, want gain or none", r.PR, r.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("ci/trajectory.ndjson has no rows")
	}

	// A row is written before its own commit exists, so the newest row
	// carries an older sha until the next change replaces it; every other
	// row must name the commit that landed its change.
	t.Run("commits", func(t *testing.T) {
		git := gitHistory(t)
		out, err := exec.Command(git, "log", "--format=%H %s", "HEAD").Output()
		if err != nil {
			t.Fatal(err)
		}
		subjects := map[string]string{} // full sha -> subject
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			sha, subject, _ := strings.Cut(line, " ")
			subjects[sha] = subject
		}
		for _, r := range rows[:len(rows)-1] {
			var found []string
			for sha, subject := range subjects {
				if strings.HasPrefix(sha, r.SHA) {
					found = append(found, subject)
				}
			}
			if want := fmt.Sprintf("PR %d:", r.PR); len(found) != 1 || !strings.HasPrefix(found[0], want) {
				t.Errorf("pr %d: sha %s names commits %q, want the one whose subject starts %q", r.PR, r.SHA, found, want)
			}
		}
	})
}

// gitHistory returns the git binary, skipping the test where git or a
// full history is missing.
func gitHistory(t *testing.T) string {
	t.Helper()
	git, err := exec.LookPath("git")
	if err != nil {
		t.Skip("git not installed")
	}
	out, err := exec.Command(git, "rev-parse", "--is-shallow-repository").Output()
	if err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	if strings.TrimSpace(string(out)) == "true" {
		t.Skip("shallow checkout: the history may not reach the row's commit")
	}
	return git
}

// TestTrajectoryLastRowIsAncestor: the newest row's sha must be a commit
// this checkout descends from. A row is written before its own commit
// exists, so it carries its parent's sha until a later change replaces it.
func TestTrajectoryLastRowIsAncestor(t *testing.T) {
	git := gitHistory(t)
	raw, err := os.ReadFile("ci/trajectory.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var last trajectoryRow
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(git, "merge-base", "--is-ancestor", last.SHA, "HEAD").Run(); err != nil {
		t.Fatalf("pr %d: sha %s is not an ancestor of HEAD (%v)", last.PR, last.SHA, err)
	}
}
