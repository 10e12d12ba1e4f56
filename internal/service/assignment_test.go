package service_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/service"
)

// FuzzAssignmentJSON holds the hand-written assignment decoder to
// encoding/json's own behavior for a plain []uint16, which is the oracle:
// both must accept exactly the same inputs and, when they accept, produce
// equal vectors. It checks the method called directly (which must find the
// value's bounds itself) and through json.Unmarshal (which hands it one
// already-validated value). `go test` runs the seed corpus.
func FuzzAssignmentJSON(f *testing.F) {
	for _, s := range []string{
		"null", " null\n", "nul", "nullx", "[]", " [ ] ", "[0]", "[65535]", "[65536]",
		"[0,1,2,3,4,5,6,7]", "[99999999999999999999]", "[-1]", "[-0]", "[01]", "[00]",
		"[1.0]", "[1e2]", "[1E2]", "[0e0]", "[1,]", "[,1]", "[1 2]", "[", "]", "",
		"[[1]]", "[[]]", "[{}]", `["1"]`, `"[1]"`, "[true]", "[false]", "[null]",
		"[null,7,null]", "{}", "7", "[1]x", "[1] [2]",
		" \t\r\n[ \t\r\n1 \t\r\n, \t\r\n2 \t\r\n] \t\r\n",
		"[\f1]", "[1\v]",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []uint16
		wantErr := json.Unmarshal(data, &want)

		var direct service.Assignment
		directErr := direct.UnmarshalJSON(data)
		var viaJSON service.Assignment
		viaErr := json.Unmarshal(data, &viaJSON)

		for _, c := range []struct {
			name string
			got  service.Assignment
			err  error
		}{{"UnmarshalJSON", direct, directErr}, {"json.Unmarshal", viaJSON, viaErr}} {
			if (c.err == nil) != (wantErr == nil) {
				t.Fatalf("%s(%q): error %v, but encoding/json into []uint16 says %v", c.name, data, c.err, wantErr)
			}
			if c.err == nil && !reflect.DeepEqual([]uint16(c.got), want) {
				t.Fatalf("%s(%q) = %#v, encoding/json into []uint16 gives %#v", c.name, data, c.got, want)
			}
		}
	})
}
