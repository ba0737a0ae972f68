package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestCancelRacesAttemptEnd cancels short probe attempts around the
// moment they return — just before, during and just after the end of
// the attempt — for a plain success, a failure with retries left and a
// recurring success. A cancel that wins must finish the job whatever the
// attempt did: cancelled with Finished stamped, its SSE stream at EOF,
// and still cancelled for a fresh manager over the same spool.
func TestCancelRacesAttemptEnd(t *testing.T) {
	const (
		sleepMS    = 4
		perVariant = 16
	)
	variants := []struct {
		name string
		mut  func(*Spec)
	}{
		{"ok", func(*Spec) {}},
		{"fail", func(s *Spec) {
			s.Probe.Fail = true
			s.Retry = &RetrySpec{MaxAttempts: 5, BackoffMS: 60_000, MaxBackoffMS: 60_000}
		}},
		{"every", func(s *Spec) { s.EveryMS = 60_000 }},
	}

	spool := t.TempDir()
	m, err := New(Config{SpoolDir: spool, Workers: 1, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	ts := httptest.NewServer(NewServer(m, nil, nil))
	defer ts.Close()
	hc := &http.Client{Timeout: 10 * time.Second}

	var cancelled []string
	for _, v := range variants {
		for i := 0; i < perVariant; i++ {
			spec := Spec{Type: TypeProbe, Probe: &ProbeSpec{SleepMS: sleepMS}}
			v.mut(&spec)
			j, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			started := waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.Started != nil })
			// Sweep the cancel from 1 ms before the attempt's sleep ends
			// to a few ms after, where its result is being recorded.
			offset := time.Duration(sleepMS-1)*time.Millisecond + time.Duration(i)*5*time.Millisecond/perVariant
			time.Sleep(time.Until(started.Started.Add(offset)))
			err = m.Cancel(j.ID)
			switch {
			case err == nil:
				cancelled = append(cancelled, j.ID)
			case errors.Is(err, ErrJobDone) && v.name == "ok":
				// The attempt finished first; a done job is not a cancel.
			default:
				t.Fatalf("%s job %d: cancel: %v", v.name, i, err)
			}
		}
	}
	if len(cancelled) < 2*perVariant {
		t.Fatalf("only %d cancels won; the fail and every variants always leave a job to cancel", len(cancelled))
	}

	for _, id := range cancelled {
		fin := waitJob(t, m, id, 5*time.Second, func(x Job) bool { return x.Finished != nil })
		if fin.State != StateCancelled {
			t.Fatalf("job %s: state %s after a winning cancel", id, fin.State)
		}
		resp, err := hc.Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("job %s: SSE stream did not reach EOF: %v", id, err)
		}
		if !strings.Contains(string(body), fmt.Sprintf(`"state":%q`, StateCancelled)) {
			t.Fatalf("job %s: SSE stream lacks the cancelled state:\n%s", id, body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	m2, err := New(Config{SpoolDir: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cancelled {
		j, err := m2.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateCancelled || j.Finished == nil {
			t.Fatalf("job %s recovered as %s (finished %v), want cancelled", id, j.State, j.Finished)
		}
	}
}
