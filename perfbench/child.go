package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// The traced run serves the stack in the benchmark's own process, so its
// load comes from a child process — the same binary in generator mode —
// keeping the generator's CPU and allocations out of the server's
// runtime metrics.

// genReport is what a generator child hands back.
type genReport struct {
	Outs    []wireOutcome `json:"outs"`
	Reports []wireOutcome `json:"reports"`
	CPUNs   int64         `json:"cpu_ns"`
}

type wireOutcome [6]int64 // due, start, end, late (ns), ok, events

func toWire(outs []outcome) []wireOutcome {
	w := make([]wireOutcome, len(outs))
	for i, o := range outs {
		ok := int64(0)
		if o.ok {
			ok = 1
		}
		w[i] = wireOutcome{int64(o.due), int64(o.start), int64(o.end), int64(o.late), ok, int64(o.events)}
	}
	return w
}

func fromWire(w []wireOutcome) []outcome {
	outs := make([]outcome, len(w))
	for i, x := range w {
		outs[i] = outcome{
			due: time.Duration(x[0]), start: time.Duration(x[1]), end: time.Duration(x[2]), late: time.Duration(x[3]),
			ok: x[4] == 1, events: int(x[5]),
		}
	}
	return outs
}

// tracedBeacons is the open-loop schedule of the traced beacon phase; the
// parent and the generator child derive the same one from the seed.
func tracedBeacons(seed uint64, dur time.Duration) []request {
	rng := rand.New(rand.NewPCG(seed, hashString("traced-arrivals")))
	return beaconSchedule(newStream(seed, "t"), rng, refRate, dur)
}

// tracedBatches is the batch source of the traced batch phase.
func tracedBatches(seed uint64) *batchSource { return newBatchSource(seed, "tm") }

// runGenerator is generator mode: drive url with the phase's traffic and
// write a genReport to out.
func runGenerator(phase, url string, seed uint64, dur time.Duration, out string) error {
	cpu0 := selfCPU()
	var rep genReport
	switch phase {
	case "beacons":
		rep.Outs = toWire(runOpen(url, tracedBeacons(seed, dur), senders, 0, 0))
	case "batches":
		poll := startPoller(url)
		outs, _ := runClosed(url, tracedBatches(seed), dur, 0)
		rep.Reports = toWire(poll.finish())
		rep.Outs = toWire(outs)
	default:
		return fmt.Errorf("unknown generator phase %q", phase)
	}
	rep.CPUNs = int64(selfCPU() - cpu0)
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

// generate runs a generator child against url and returns its report.
func generate(e *env, phase, url string, seed uint64, dur time.Duration) (*genReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := fmt.Sprintf("%s/gen-%s-%d.json", e.work, phase, time.Now().UnixNano())
	cmd := exec.Command(self, "-gen", phase, "-url", url, "-seed", strconv.FormatUint(seed, 10),
		"-gen-duration", dur.String(), "-out", out)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("generator child: %w", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var rep genReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("generator report: %w", err)
	}
	return &rep, nil
}
