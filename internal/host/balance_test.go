package host

import (
	"reflect"
	"testing"

	"pimnw/internal/kernel"
)

func TestLPTAssignExportedWrapper(t *testing.T) {
	loads := []int64{5, 3, 8, 1}
	want, _ := kernel.LPT(loads, 2)
	if got := LPTAssign(loads, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("LPTAssign = %v, want %v", got, want)
	}
}
