package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func lastReport(t *testing.T, out *bytes.Buffer) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not a report: %v\n%s", err, out.String())
	}
	return rep
}

// TestOutputCheckBites runs the same short workload twice: with true
// references it must pass, and with one chunk's reference wrong by one
// byte it must count a failure and exit non-zero.
func TestOutputCheckBites(t *testing.T) {
	for _, name := range []string{"fanin-16k", "noisy-paced"} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0"}
			if code := run(args, &out, io.Discard); code != 0 {
				t.Fatalf("clean run exited %d:\n%s", code, out.String())
			}
			if rep := lastReport(t, &out); !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("clean run reported %+v", rep)
			}

			out.Reset()
			// Set-up trials hand over sequence numbers 0 and 1 only, so
			// sequence 3 is checked in the measured pipeline.
			if code := run(append(args, "--corrupt-ref", "3"), &out, io.Discard); code != 1 {
				t.Fatalf("run with a wrong reference exited %d, want 1:\n%s", code, out.String())
			}
			if rep := lastReport(t, &out); rep.Correct || rep.Failed != 1 {
				t.Fatalf("run with a wrong reference reported correct=%v failed=%d, want false and 1",
					rep.Correct, rep.Failed)
			}
		})
	}
}
