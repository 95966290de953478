// Package determinism is a golden fixture for the determinism analyzer.
package determinism

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// GlobalDraw uses the process-global generator.
func GlobalDraw() float64 {
	return rand.Float64() // want `math/rand\.Float64 uses the process-global generator`
}

// SeededDraw threads a seeded generator: the blessed pattern.
func SeededDraw(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // ok: constructor, local generator
	return r.Float64()                  // ok: method on the seeded generator
}

// Stamp reads the wall clock outside the blessed file.
func Stamp() time.Time {
	return time.Now() // want `time\.Now outside internal/reliable/clock\.go`
}

// Elapsed smuggles the clock through a function value.
var Elapsed = time.Since // want `time\.Since outside internal/reliable/clock\.go`

// PrintAll leaks map order straight into output.
func PrintAll(m map[string]int) {
	for k, v := range m { // want `map iteration order leaks into output: fmt\.Println inside the range body`
		fmt.Println(k, v)
	}
}

// CollectUnsorted leaks map order through an unsorted slice.
func CollectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order leaks into output: append to keys`
		keys = append(keys, k)
	}
	return keys
}

// CollectSorted restores a deterministic order before returning.
func CollectSorted(m map[string]int) []string {
	var keys []string
	for k := range m { // ok: keys is sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Tally ranges over a map without ordered output: order cannot leak.
func Tally(m map[string]int) int {
	total := 0
	for _, v := range m { // ok: sum is order-independent
		total += v
	}
	return total
}

// backoff draws one slot from the caller's generator.
func backoff(r *rand.Rand, be int) int {
	return r.Intn(1 << be)
}

// JitterInMapOrder draws from the generator in map order.
func JitterInMapOrder(m map[string]float64, r *rand.Rand) {
	for k := range m { // want `map iteration order leaks into the random stream: \(\*rand\.Rand\)\.Float64 reached from the range body`
		m[k] += r.Float64()
	}
}

// ReleaseInMapOrder reaches the generator through a local closure and
// a package function: the draws still follow map order.
func ReleaseInMapOrder(queues map[int]int, r *rand.Rand) map[int]int {
	slots := make(map[int]int, len(queues))
	release := func(node int) {
		slots[node] = backoff(r, queues[node])
	}
	for node := range queues { // want `map iteration order leaks into the random stream: \(\*rand\.Rand\)\.Intn reached from the range body`
		release(node)
	}
	return slots
}

// ReleaseSorted draws in ascending key order.
func ReleaseSorted(queues map[int]int, r *rand.Rand) map[int]int {
	nodes := make([]int, 0, len(queues))
	for node := range queues { // ok: nodes is sorted below, and nothing is drawn
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	slots := make(map[int]int, len(queues))
	for _, node := range nodes { // ok: ranges over the sorted slice
		slots[node] = backoff(r, queues[node])
	}
	return slots
}
