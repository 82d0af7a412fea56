package config

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// leafFields maps the address of every non-struct field reachable from
// c to its Go path ("Limits.Limits.GlobalQPS").
func leafFields(v reflect.Value, path string, into map[uintptr]string) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), strings.TrimPrefix(path+"."+v.Type().Field(i).Name, ".")
		if f.Kind() == reflect.Struct {
			leafFields(f, name, into)
		} else {
			into[f.Addr().Pointer()] = name
		}
	}
}

// TestKeyTableCoversConfig makes the table self-policing: a Config field
// without a row (or with two), or a row reusing a name, a flag or a
// field, fails here — so a new key cannot be half-added.
func TestKeyTableCoversConfig(t *testing.T) {
	// Fields that are deliberately not configuration keys.
	noKey := map[string]bool{
		"Align.Workers": true, // simulation parallelism; alignd always runs on GOMAXPROCS
	}
	c := Default()
	leaves := map[uintptr]string{}
	leafFields(reflect.ValueOf(c).Elem(), "", leaves)

	rows := map[string]string{} // Go field path, dotted name and flag → the row that claimed it
	claim := func(what string, k Key) {
		if prev, dup := rows[what]; dup {
			t.Errorf("%s is claimed by rows %s and %s", what, prev, k)
		}
		rows[what] = k.String()
	}
	closed := map[string]bool{}
	section := ""
	for _, k := range Keys() {
		if k.Section != section {
			if closed[k.Section] {
				t.Errorf("section %s is not contiguous in the table (WriteTo would emit it twice)", k.Section)
			}
			closed[section], section = true, k.Section
		}
		path, ok := leaves[reflect.ValueOf(k.field(c)).Pointer()]
		if !ok {
			t.Errorf("row %s does not address a field of the Config it was given", k)
			continue
		}
		if noKey[path] {
			t.Errorf("row %s addresses %s, which is on the no-key list", k, path)
		}
		claim("field "+path, k)
		claim("key "+k.String(), k)
		if k.Flag != "" {
			claim("flag -"+k.Flag, k)
		}
		k.Format(c) // panics on a field type Set/Format do not handle
	}
	for _, path := range leaves {
		if rows["field "+path] == "" && !noKey[path] {
			t.Errorf("Config.%s has no row in the key table (add one, or list it in noKey with the reason)", path)
		}
	}
}

// twoValues returns two texts k.Set accepts that format differently.
func twoValues(t *testing.T, k Key) (a, b string) {
	t.Helper()
	var ok []string
	for _, text := range []string{"true", "false", "64", "42", "90s", "3ms"} {
		if k.Set(Default(), text) == nil {
			ok = append(ok, text)
		}
	}
	if len(ok) < 2 {
		t.Fatalf("%s: no two candidate values parse", k)
	}
	return ok[0], ok[1]
}

// TestFlagBeatsFile drives the functions alignd's run() uses — BindFlags,
// Parse, ApplyFlags — on a private flag set: for every key with a flag,
// the file's value stands when the flag is absent and the flag's value
// wins when it is given, and nothing else moves.
func TestFlagBeatsFile(t *testing.T) {
	for _, k := range Keys() {
		if k.Flag == "" {
			continue
		}
		inFile, onCmdline := twoValues(t, k)
		file := fmt.Sprintf("%s:\n  %s: %s\n", k.Section, k.Name, inFile)
		for _, tc := range []struct {
			args []string
			want string
		}{
			{nil, inFile},
			{[]string{"-" + k.Flag + "=" + onCmdline}, onCmdline},
		} {
			fs := flag.NewFlagSet("alignd", flag.ContinueOnError)
			Default().BindFlags(fs)
			if fs.Lookup(k.Flag) == nil {
				t.Fatalf("%s: BindFlags did not declare -%s", k, k.Flag)
			}
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := Parse([]byte(file))
			if err != nil {
				t.Fatal(err)
			}
			if err := got.ApplyFlags(fs); err != nil {
				t.Fatal(err)
			}
			want := Default()
			if err := k.Set(want, tc.want); err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Errorf("%s: file %q, args %q:\n got %+v\nwant %+v", k, inFile, tc.args, *got, *want)
			}
		}
	}
}

// TestFlagDefaultsAreConfigDefaults: a flag's default is the key's
// default, whoever declared the flag (BindFlags or host.Options.Bind).
func TestFlagDefaultsAreConfigDefaults(t *testing.T) {
	fs := flag.NewFlagSet("alignd", flag.ContinueOnError)
	Default().BindFlags(fs)
	for _, k := range Keys() {
		if k.Flag == "" {
			continue
		}
		viaFlag := Default()
		if err := k.Set(viaFlag, fs.Lookup(k.Flag).DefValue); err != nil {
			t.Errorf("%s: flag default %q does not parse: %v", k, fs.Lookup(k.Flag).DefValue, err)
		} else if *viaFlag != *Default() {
			t.Errorf("%s: -%s defaults to %s, the key to %s", k, k.Flag, k.Format(viaFlag), k.Format(Default()))
		}
	}
}

const (
	keyTableBegin = "<!-- key table: generated from internal/admission/config (go test ./internal/admission/config -run TestREADMEKeyTable -update) -->\n"
	keyTableEnd   = "<!-- end of key table -->\n"
)

// keyTableMarkdown renders the README's key reference from the table.
func keyTableMarkdown() string {
	var b strings.Builder
	b.WriteString("| key | flag | default | hot-reload |\n| --- | --- | --- | --- |\n")
	def := Default()
	for _, k := range Keys() {
		flagCol, reload := "", "yes"
		if k.Flag != "" {
			flagCol = "`-" + k.Flag + "`"
		}
		if k.Static {
			reload = "no (restart)"
		}
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n", k, flagCol, k.Format(def), reload)
	}
	return b.String()
}

// TestREADMEKeyTable keeps the README's key reference equal to the key
// table, so the prose cannot drift from what the code reloads again.
func TestREADMEKeyTable(t *testing.T) {
	path := filepath.Join("..", "..", "..", "README.md")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := bytes.Cut(raw, []byte(keyTableBegin))
	got, tail, ok2 := bytes.Cut(rest, []byte(keyTableEnd))
	if !ok || !ok2 {
		t.Fatalf("README.md has no key table markers %q … %q", keyTableBegin, keyTableEnd)
	}
	want := keyTableMarkdown()
	if string(got) == want {
		return
	}
	if !*update {
		t.Fatalf("README.md's key table is out of date (rerun with -update):\n got:\n%s\nwant:\n%s", got, want)
	}
	out := string(head) + keyTableBegin + want + keyTableEnd + string(tail)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}
