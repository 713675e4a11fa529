package core

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"

	"pab/internal/telemetry"
)

// TestDecodeKeepsCallerPprofLabels decodes one exchange inside a pabd
// job's pprof labels, with telemetry on, and requires the goroutine to
// still carry them afterwards: a CPU profile must attribute the decode,
// and whatever the job does after it, to the job.
func TestDecodeKeepsCallerPprofLabels(t *testing.T) {
	rec, gate, bitrate, _ := equivCases()[0].exchange(t)
	r, err := NewReceiver(DefaultLinkConfig().SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	defer telemetry.SetEnabled(telemetry.Enabled())
	telemetry.SetEnabled(true)

	const want = `# labels: {"job_id":"decode-labels-test", "kind":"link", "spec_hash":"0123abcd", "stage":"sim_job"}`
	labels := pprof.Labels("stage", "sim_job", "job_id", "decode-labels-test", "spec_hash", "0123abcd", "kind", "link")
	var decErr, profErr error
	var profile bytes.Buffer
	pprof.Do(context.Background(), labels, func(context.Context) {
		_, decErr = r.DecodeUplink(rec, DefaultLinkConfig().CarrierHz, bitrate, gate)
		profErr = pprof.Lookup("goroutine").WriteTo(&profile, 1)
	})
	if decErr != nil {
		t.Fatal(decErr)
	}
	if profErr != nil {
		t.Fatal(profErr)
	}
	if !strings.Contains(profile.String(), want) {
		t.Fatalf("job labels lost: no goroutine in the profile carries\n%s", want)
	}
}
