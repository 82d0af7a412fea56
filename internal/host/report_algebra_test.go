package host

import (
	"reflect"
	"strconv"
	"testing"
)

// reportTimelineFields is every Report field that is NOT an additive
// counter, with how it composes. A new Report field must either go into
// Counters (and get its line in Counters.Add) or be listed here together
// with its handling in Then / Alongside / fold.
var reportTimelineFields = map[string]string{
	"MakespanSec":     "Then: sum of the windows; Alongside: max of the windows",
	"Batches":         "fold: batch numbers continue, counts add (weights UtilizationMean)",
	"UtilizationMin":  "fold: min",
	"UtilizationMean": "fold: mean weighted by Batches",
	"TraceID":         "identity: set by newReport, never merged",
	"Escalation":      "fold: appended, windows rebased by the sequential offset",
	"Backends":        "Then: pairwise per fleet slot; Alongside: left to alignFleet, which owns the slots",
	"Ranks":           "fold: appended, slots moved by (seconds, rank) offset",
}

// TestReportFieldsClassified fails when a Report field is neither a
// counter nor on the timeline list, or lacks the JSON tag WriteJSON
// relies on.
func TestReportFieldsClassified(t *testing.T) {
	rt := reflect.TypeOf(Report{})
	seen := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Anonymous && f.Type == reflect.TypeOf(Counters{}) {
			continue
		}
		seen[f.Name] = true
		if _, ok := reportTimelineFields[f.Name]; !ok {
			t.Errorf("Report.%s is neither in Counters nor in reportTimelineFields", f.Name)
		}
		if f.Tag.Get("json") == "" {
			t.Errorf("Report.%s has no json tag", f.Name)
		}
	}
	for name := range reportTimelineFields {
		if !seen[name] {
			t.Errorf("reportTimelineFields lists %s, which Report no longer has", name)
		}
	}
	ct := reflect.TypeOf(Counters{})
	for i := 0; i < ct.NumField(); i++ {
		if ct.Field(i).Tag.Get("json") == "" {
			t.Errorf("Counters.%s has no json tag", ct.Field(i).Name)
		}
	}
}

// fillDistinct sets v to a non-zero value derived from *n, recursing
// through structs, slices (one element) and maps (one entry), and
// advances *n so every leaf differs.
func fillDistinct(t *testing.T, v reflect.Value, n *int64) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(*n)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(strconv.FormatInt(*n, 10))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillDistinct(t, v.Index(0), n)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillDistinct(t, key, n)
		fillDistinct(t, val, n)
		v.SetMapIndex(key, val)
	default:
		t.Fatalf("fillDistinct: unsupported kind %s — extend this test and Counters.Add together", v.Kind())
	}
}

// TestCountersAddCoversEveryField fills every Counters field with a
// distinct value and adds it into a zero Counters: a field Add forgets
// stays zero and breaks the equality.
func TestCountersAddCoversEveryField(t *testing.T) {
	var src, dst Counters
	var n int64
	fillDistinct(t, reflect.ValueOf(&src).Elem(), &n)
	dst.Add(&src)
	sv, dv := reflect.ValueOf(src), reflect.ValueOf(dst)
	for i := 0; i < sv.NumField(); i++ {
		if !reflect.DeepEqual(sv.Field(i).Interface(), dv.Field(i).Interface()) {
			t.Errorf("Counters.Add drops %s: got %v, want %v",
				sv.Type().Field(i).Name, dv.Field(i).Interface(), sv.Field(i).Interface())
		}
	}
}
