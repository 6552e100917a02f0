package sched

import (
	"strings"
	"testing"
)

const sampleSWF = `; Sample SWF header
; MaxNodes: 128
1 0 10 3600 16 -1 -1 16 7200 -1 1 -1 -1 -1 -1 -1 -1 -1
2 100 -1 60 -1 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1
3 200 0 -1 8 -1 -1 8 500 -1 0 -1 -1 -1 -1 -1 -1 -1
4 150 0 500 256 -1 -1 256 900 -1 1 -1 -1 -1 -1 -1 -1 -1
5 300 5 40 2 -1 -1 -1 20 -1 1 -1 -1 -1 -1 -1 -1 -1
`

func TestReadSWF(t *testing.T) {
	jobs, err := ReadSWF(strings.NewReader(sampleSWF), 128)
	if err != nil {
		t.Fatal(err)
	}
	// Job 3 has no runtime (failed); job 4 is wider than 128.
	if len(jobs) != 3 {
		t.Fatalf("parsed %d jobs, want 3", len(jobs))
	}
	j1 := jobs[0]
	if j1.ID != 1 || j1.Submit != 0 || j1.Nodes != 16 || j1.Runtime != 3600 || j1.Estimate != 7200 {
		t.Fatalf("job 1 = %+v", j1)
	}
	// Job 2: requested procs 4 used; estimate 100 >= run 60.
	j2 := jobs[1]
	if j2.Nodes != 4 || j2.Estimate != 100 {
		t.Fatalf("job 2 = %+v", j2)
	}
	// Job 5: reqprocs -1 falls back to allocated (2); reqtime 20 < run
	// 40 clamps up to the runtime.
	j5 := jobs[2]
	if j5.Nodes != 2 || j5.Estimate != 40 {
		t.Fatalf("job 5 = %+v", j5)
	}
}

func TestReadSWFSortsBySubmit(t *testing.T) {
	shuffled := `2 500 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
1 100 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
`
	jobs, err := ReadSWF(strings.NewReader(shuffled), 0)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].ID != 1 || jobs[1].ID != 2 {
		t.Fatalf("not sorted: %v %v", jobs[0].ID, jobs[1].ID)
	}
}

func TestReadSWFErrors(t *testing.T) {
	if _, err := ReadSWF(strings.NewReader("1 2 3\n"), 0); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ReadSWF(strings.NewReader("x 0 0 10 1 -1 -1 1 10\n"), 0); err == nil {
		t.Error("non-numeric field accepted")
	}
	// strconv parses NaN and Inf; a trace holding one once panicked the
	// scheduler.
	for _, c := range []struct{ line, want string }{
		{"1 NaN 0 10 1 -1 -1 1 10\n", "line 1 field 2"},
		{"; header\n1 0 0 +Inf 1 -1 -1 1 10\n", "line 2 field 4"},
		{"1 0 0 10 1 -1 -1 1 -inf\n", "line 1 field 9"},
	} {
		_, err := ReadSWF(strings.NewReader(c.line), 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadSWF(%q) = %v, want an error naming %s", c.line, err, c.want)
		}
	}
}

func TestSWFTraceIsSchedulable(t *testing.T) {
	trace, err := ReadSWF(strings.NewReader(sampleSWF), 128)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(128, trace, EASY{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 3 {
		t.Fatalf("scheduled %d jobs", res.Jobs)
	}
}
