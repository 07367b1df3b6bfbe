package main

import (
	"math/rand"
	"sort"
	"time"
)

const (
	// refEvery is how much simulating happens between reference timings.
	refEvery = 250 * time.Millisecond
	// refRuns is how many reference runs one timing averages.
	refRuns = 2
)

// The reference is a fixed workload of the benchmark's own, timed between
// stretches of simulating. A shared host's speed drifts by a fifth over
// minutes with its neighbours' load, and the simulator slows with it;
// the reference, which sorts and chases freshly allocated pointers much
// as the simulator does, slows by about as much. Dividing one rate by
// the other cancels most of the drift, while a change to the program
// still moves the ratio in full.

type refNode struct {
	key  float64
	next *refNode
	pad  [4]float64
}

var refSink float64

func reference() {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	byKey := make(map[int]*refNode, 5000)
	var head *refNode
	for i := 0; i < 60000; i++ {
		n := &refNode{key: xs[i%len(xs)], next: head}
		n.pad[0] = 2 * n.key
		head = n
		byKey[i%5000] = n
	}
	var sum float64
	for n := head; n != nil; n = n.next {
		sum += n.pad[0]
	}
	for _, n := range byKey {
		sum += n.key
	}
	refSink = sum
}

// timeReference returns the host seconds one reference run takes, the
// mean of refRuns runs.
func timeReference() float64 {
	t0 := time.Now()
	for i := 0; i < refRuns; i++ {
		reference()
	}
	return time.Since(t0).Seconds() / refRuns
}
