package service_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/service"
)

// replay writes data as the job log at path, opens it bounded to max
// records, starts an engine restored from it, and submits three new jobs in
// one waiting batch, so the same code runs for every input whatever the
// scheduling (the fuzzer needs that). It returns the engine, the restored
// records and the new job ids.
func replay(t *testing.T, path string, data []byte, max int) (*service.Engine, []service.JobInfo, []string) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, restored, err := service.OpenJobLog(path, max)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, again, err := service.OpenJobLog(path, max)
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if !reflect.DeepEqual(restored, again) {
		t.Fatalf("re-open restored %+v, first open %+v", again, restored)
	}
	e := service.New(service.Config{Workers: 1, JobParallelism: 1, Restore: restored})
	t.Cleanup(e.Close)
	req := service.Request{Algo: "kl", Opts: algo.Options{Parts: 2}}
	infos, err := e.Submit(context.Background(), jobLogGraph, []service.Request{req, req, req}, true)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, info := range infos {
		ids = append(ids, info.ID)
	}
	return e, restored, ids
}

var jobLogGraph = stored(gen.Mesh(30, 1))

// A restored id at the top of the uint64 range used to wrap the id counter,
// so the second new job was issued j00000001 and replaced the restored job
// of that id. Restore now drops every id it could not have issued itself.
func TestEngineRestoreDropsWrappingIDs(t *testing.T) {
	log := `{"id":"j00000001","state":"done","algo":"fm","key":"restored"}
{"id":"j18446744073709551615","state":"done","algo":"kl"}
{"id":"j9223372036854775808","state":"done","algo":"kl"}
{"id":"j7x","state":"done","algo":"kl"}
`
	e, _, ids := replay(t, filepath.Join(t.TempDir(), "jobs.jsonl"), []byte(log), 100)
	for _, id := range ids {
		if id == "j00000001" {
			t.Errorf("new job reissued the restored id %s (new ids %v)", id, ids)
		}
	}
	got, ok := e.GetJob("j00000001")
	if !ok || got.Algo != "fm" || got.Key != "restored" {
		t.Errorf("restored j00000001 became %+v (found %v)", got, ok)
	}
	for _, id := range []string{"j18446744073709551615", "j9223372036854775808", "j7x"} {
		if _, ok := e.GetJob(id); ok {
			t.Errorf("record %s restored", id)
		}
	}
}

var jobID = regexp.MustCompile(`^j[0-9]+$`)

// restorable reports whether the engine keeps a record of this id: "j" and
// decimal digits below 2^63.
func restorable(id string) bool {
	if !jobID.MatchString(id) {
		return false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	return err == nil && n < 1<<63
}

// FuzzJobLogReplay feeds arbitrary bytes to a restart: OpenJobLog must
// neither panic nor return more than its bound, must return the same
// records when opened again, and an engine restored from them must answer
// GetJob for the first terminal record of every restorable id, for nothing
// else, and never issue a new job a restored id.
func FuzzJobLogReplay(f *testing.F) {
	valid := `{"id":"j00000001","state":"done","algo":"kl","parts":2,"seed":7,"key":"k1","created_unix_ms":1700000000000,"result":{"assign":null,"parts":2,"cut":3}}
{"id":"j00000002","state":"failed","algo":"fm","error":"boom"}
{"id":"j00000003","state":"cancelled","algo":"fm","error":"cancelled"}
`
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"id":"j00000004","state":"do`))
	f.Add([]byte(`{"id":"j00000002","state":"done","algo":"kl"}
{"id":"j00000002","state":"cancelled","algo":"fm"}
`))
	f.Add([]byte(`{"id":"j00000009","state":"running","algo":"kl"}
{"id":"j00000001","state":"done"}
`))
	f.Add([]byte(`{"id":"j00000001","state":"done","algo":"fm","key":"restored"}
{"id":"j18446744073709551615","state":"done"}
`))
	const max = 8
	// One file for every input: a directory per input would cost more than
	// the replay itself.
	path := filepath.Join(f.TempDir(), "jobs.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		e, restored, ids := replay(t, path, data, max)
		if len(restored) > max {
			t.Fatalf("restored %d records past the bound %d", len(restored), max)
		}
		want := map[string]service.JobInfo{}
		for _, rec := range restored {
			for _, id := range ids {
				if id == rec.ID {
					t.Fatalf("new job reissued restored id %q", id)
				}
			}
			switch rec.State {
			case service.StateDone, service.StateFailed, service.StateCancelled:
				if _, dup := want[rec.ID]; !dup && restorable(rec.ID) {
					want[rec.ID] = rec
				}
			}
		}
		for _, rec := range restored {
			got, ok := e.GetJob(rec.ID)
			w, kept := want[rec.ID]
			if ok != kept {
				t.Fatalf("GetJob(%q) found %v, want %v", rec.ID, ok, kept)
			}
			if !kept {
				continue
			}
			if got.State != w.State || got.Algo != w.Algo || got.Parts != w.Parts || got.Seed != w.Seed ||
				got.Key != w.Key || got.Cached != w.Cached || got.Created != w.Created {
				t.Fatalf("GetJob(%q) = %+v, restored %+v", rec.ID, got, w)
			}
			if w.State == service.StateDone && !reflect.DeepEqual(got.Result, w.Result) {
				t.Fatalf("GetJob(%q) result %+v, restored %+v", rec.ID, got.Result, w.Result)
			}
		}
	})
}

// A line over the 4 MiB line bound used to end the replay, and the rewrite
// on open then deleted every record after it. It is now skipped like a
// malformed line, and the records on both sides of it survive, on disk too.
func TestJobLogKeepsRecordsAfterOverlongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	data := `{"id":"j00000001","state":"done","algo":"kl"}` + "\n" +
		`{"id":"j00000002","state":"failed","algo":"kl","error":"` + strings.Repeat("x", 5<<20) + `"}` + "\n" +
		`{"id":"j00000003","state":"done","algo":"fm"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	ids := func(recs []service.JobInfo) []string {
		var out []string
		for _, r := range recs {
			out = append(out, r.ID)
		}
		return out
	}
	want := []string{"j00000001", "j00000003"}
	for open := 1; open <= 2; open++ {
		l, restored, err := service.OpenJobLog(path, 100)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if got := ids(restored); !reflect.DeepEqual(got, want) {
			t.Fatalf("open %d restored %v, want %v", open, got, want)
		}
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(onDisk), "\n"); lines != 2 || len(onDisk) > 1<<10 {
		t.Errorf("log holds %d lines in %d bytes after the rewrite, want the 2 records", lines, len(onDisk))
	}
}

// Opening a log that needs no compaction (within the bound, no malformed
// line, ending in a newline) must append to the file as it stands rather
// than rewrite it through a temporary file and a rename.
func TestOpenJobLogLeavesCleanLogInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	data := []byte(`{"id":"j00000001","state":"done","algo":"kl"}` + "\n" +
		`{"id":"j00000002","state":"done","algo":"fm"}` + "\n")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	l, restored, err := service.OpenJobLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("OpenJobLog replaced a clean log with a new file")
	}
	if got, _ := os.ReadFile(path); len(restored) != 2 || string(got) != string(data) {
		t.Errorf("restored %d records and left %q, want 2 and the file unchanged", len(restored), got)
	}
}
