// Forensics: after-the-fact investigation over recorded observations. A day
// of traffic is simulated and indexed; an investigator then takes one
// appearance sample of a person of interest and (1) re-identifies their other
// sightings across every camera, (2) reconstructs their trajectory, and
// (3) finds who else was near them at a chosen moment.
//
//	go run ./examples/forensics
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"stcam"
)

func main() {
	ctx := context.Background()
	cl, err := stcam.NewLocalCluster(4, nil, stcam.Options{LostAfter: time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()

	// A 6×6 camera grid over a 1200 m campus.
	world := stcam.RectOf(0, 0, 1200, 1200)
	var cams []stcam.CameraInfo
	id := uint32(1)
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			cams = append(cams, stcam.CameraInfo{
				ID:      id,
				Pos:     stcam.Pt(float64(c)*200+100, float64(r)*200+100),
				HalfFOV: math.Pi,
				Range:   170,
			})
			id++
		}
	}
	if err := cl.Coordinator.AddCameras(ctx, cams, 60); err != nil {
		log.Fatal(err)
	}

	// Record 10 simulated minutes of pedestrian traffic.
	w, err := stcam.NewWorld(stcam.WorldConfig{
		World:       world,
		NumObjects:  25,
		Model:       &stcam.RandomWaypoint{World: world, MinSpeed: 1, MaxSpeed: 3},
		Seed:        7,
		FeatureDim:  64,
		RecordTruth: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	det := stcam.NewDetector(stcam.DetectorConfig{
		PosNoise:     1.0,
		FeatureNoise: 0.05,
		FalseNegRate: 0.1,
		FeatureDim:   64,
		Seed:         8,
	})
	ing := stcam.NewIngester(cl.Coordinator, cl.Transport)
	defer ing.Close()
	var probe stcam.Feature // the investigator's appearance sample
	var probeTime time.Time
	w.Run(600, cl.Coordinator.Network(), det, func(_ int, obs []stcam.Detection) {
		if _, err := ing.IngestDetections(ctx, obs); err != nil {
			log.Fatal(err)
		}
		for _, d := range obs {
			if d.TrueID == 13 && probe == nil {
				probe = d.Feature
				probeTime = d.Time
			}
		}
	})
	if probe == nil {
		log.Fatal("person of interest was never on camera")
	}
	fmt.Printf("indexed 10 minutes of traffic; probe sample captured at %s\n\n",
		probeTime.Format("15:04:05"))

	// 1. Re-identification sweep across all workers' identity galleries.
	window := stcam.TimeWindow{From: stcam.SimStart, To: w.Now()}
	var hits []stcam.ResultRecord
	for _, wk := range cl.Workers {
		hits = append(hits, wk.ReidSearch(probe, window, 0.8)...)
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].Time.Before(hits[j].Time) })
	fmt.Printf("re-identification: %d sightings across the network\n", len(hits))
	camerasSeen := map[uint32]bool{}
	for _, h := range hits {
		camerasSeen[h.Camera] = true
	}
	fmt.Printf("  seen by %d distinct cameras\n\n", len(camerasSeen))

	// 2. Trajectory reconstruction from the sightings, validated against
	//    ground truth.
	var tr stcam.Trajectory
	for _, h := range hits {
		tr.Append(h.Time, h.Pos)
	}
	truth := w.Truth(13)
	var sumErr float64
	for _, tp := range tr.Points {
		gt, err := truth.At(tp.T)
		if err != nil {
			continue
		}
		sumErr += tp.P.Dist(gt)
	}
	fmt.Printf("trajectory: %d points, %.0f m path, mean error vs ground truth %.1f m\n\n",
		tr.Len(), tr.Length(), sumErr/float64(max(tr.Len(), 1)))

	// 3. Who was near the person of interest midway through the recording?
	mid := stcam.SimStart.Add(5 * time.Minute)
	pos, err := tr.At(mid)
	if err != nil {
		log.Fatal(err)
	}
	nearWindow := stcam.TimeWindow{From: mid.Add(-15 * time.Second), To: mid.Add(15 * time.Second)}
	nn, err := cl.Coordinator.KNN(ctx, pos, nearWindow, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("observations within the ±15 s window around %s near %s:\n",
		mid.Format("15:04:05"), pos)
	others := map[uint64]float64{}
	for _, r := range nn {
		d := math.Sqrt(r.Dist2)
		if prev, ok := others[r.TargetID]; !ok || d < prev {
			others[r.TargetID] = d
		}
	}
	for tgt, d := range others {
		fmt.Printf("  target %d, closest approach %.0f m\n", tgt, d)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
