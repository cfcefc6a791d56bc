// Drift: the online replanning loop at library level.
//
// The faulty example reacts to one static fault scenario; real clusters drift
// continuously. This example closes the loop: a seeded synthetic telemetry
// trace (healthy → thermal throttle of the big cards → recovery) streams
// through the drift watcher's EWMA smoothing and hysteresis bands, and every
// detected episode replans on the observed cluster state through the warm
// agent — adopting the new plan only when it strictly beats the stale one.
//
// The same loop runs as a service: heterog-serve ingests observations at
// POST /v1/jobs/{id}/telemetry and fires these replans automatically (see
// examples/serve and TestTelemetrySeededDriftTrace in internal/service).
package main

import (
	"fmt"
	"log"

	"heterog"
	"heterog/internal/cluster"
	"heterog/internal/models"
	"heterog/internal/telemetry"
)

func main() {
	const batch = 192
	devices := cluster.Testbed8()

	// Plan nominally. WithTelemetryThresholds tunes the drift watcher the
	// runner hands out; the zero value selects every default (EWMA alpha 0.3,
	// slowdown band 1.25/1.1, overlay quantum 0.05).
	runner, err := heterog.GetRunner(
		heterog.ZooModel(models.VGG19, batch),
		func() (int, error) { return batch, nil },
		devices,
		heterog.WithEpisodes(4),
		heterog.WithTelemetryThresholds(telemetry.Thresholds{}),
	)
	if err != nil {
		log.Fatal(err)
	}
	watcher, err := runner.Watcher()
	if err != nil {
		log.Fatal(err)
	}

	// A deterministic drift trace: 5 healthy ticks, 25 ticks ramping the most
	// powerful devices to a 2.5x thermal throttle, 25 ticks recovering.
	gen := telemetry.NewGenerator(devices, telemetry.GenConfig{Seed: 7})
	fmt.Printf("model: %s on %s\n", runner.Graph.Name, devices.Name)
	fmt.Printf("nominal plan: %.3f s/iter; throttle will hit devices %v\n\n",
		runner.Plan.PerIter, gen.Throttled())

	incumbent := runner
	episodes := 0
	for !gen.Done() {
		readings := gen.Step()
		fired, reason := watcher.Observe(devices, readings...)
		if !fired {
			continue
		}
		episodes++
		fmt.Printf("tick %2d (%s): drift detected — %s\n", gen.Tick(), gen.Regime(), reason)

		// Render the smoothed, quantized observations onto the nominal
		// cluster and replan there with the warm agent.
		drifted := devices.ApplyObservations(watcher.Overlay())
		next, err := incumbent.Replan(drifted)
		if err != nil {
			log.Fatal(err)
		}
		stale, err := next.Evaluate(incumbent.Strategy)
		if err != nil {
			log.Fatal(err)
		}
		if next.Plan.PerIter < stale.PerIter {
			fmt.Printf("         replanned on %s: %.3f → %.3f s/iter (%.1f%% faster than the stale plan)\n",
				drifted.Name, stale.PerIter, next.Plan.PerIter,
				100*(stale.PerIter-next.Plan.PerIter)/stale.PerIter)
		} else {
			fmt.Printf("         replanned on %s: stale plan still optimal at %.3f s/iter, kept\n",
				drifted.Name, stale.PerIter)
		}

		// Adopt the drifted state as the new baseline; the watcher re-arms
		// and the next episode replans from this runner's warm agent.
		incumbent = next
		watcher.Rebase()
	}

	fmt.Printf("\n%d drift episodes over %d ticks; final plan %.3f s/iter on %s\n",
		episodes, gen.Tick(), incumbent.Plan.PerIter, incumbent.Cluster.Name)
}
