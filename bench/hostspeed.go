package main

import (
	"sync"
	"time"
)

// The machine this benchmark is judged on is a small shared virtual machine
// whose speed drifts: for minutes at a time every timing of every workload
// reads 10–35 % slower, because of what its neighbours do to the caches and
// the memory bus. Ten runs taken one after the other then measure the host,
// not the code (README.md, "Reference speed", has the numbers). So after
// every epoch the benchmark times a fixed kernel of its own, and a run's
// timings are reported at reference speed: scaled by how much slower than on
// the quiet host the kernel ran during that run.
//
// The kernel is two loops, about equal in time on the quiet host, because
// the workloads slow down by something between the two: arithmetic with
// independent loads scattered over 2 MB (which a busy neighbour slows a
// little), and lookups in an open-addressing hash table of 16-byte keys
// spread over 3 MB (two dependent cache misses each, which it slows a lot).
// Its data are package-level arrays without pointers: not on the heap, so
// the collector neither scans them nor counts them towards its next cycle,
// and the workloads' own memory behaviour is left alone.

const kernelKeys = 1 << 17

var (
	kernelBuf  [1 << 18]uint64
	kernelKey  [kernelKeys][16]byte
	kernelSlot [2 * kernelKeys]uint32 // index into kernelKey + 1; 0 = empty
	kernelOnce sync.Once
	kernelSink uint64
)

// kernelQuietUS is the kernel's median time in microseconds beside each
// workload (which leaves the caches in its own state) on the host of the
// first baseline in its quiet stretches: reference speed.
var kernelQuietUS = map[string]float64{
	"building": 330, "pipeline-serial": 270, "pipeline-remote": 320, "query-churn": 330,
}

func kernelHash(k *[16]byte) uint32 {
	h := uint32(2166136261)
	for _, b := range k {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

func kernelInit() {
	x := uint64(1)
	for i := range kernelKey {
		for j := range kernelKey[i] {
			x = x*6364136223846793005 + 1442695040888963407
			kernelKey[i][j] = byte(x >> 56)
		}
		s := kernelHash(&kernelKey[i]) % uint32(len(kernelSlot))
		for kernelSlot[s] != 0 {
			s = (s + 1) % uint32(len(kernelSlot))
		}
		kernelSlot[s] = uint32(i) + 1
	}
}

// hostKernel runs the kernel once and returns how long it took.
func hostKernel() time.Duration {
	t0 := time.Now()
	sum := kernelSink
	for i := 0; i < 1<<15; i++ {
		j := uint64(i) * 4 % uint64(len(kernelBuf))
		kernelBuf[j] = kernelBuf[j]*6364136223846793005 + 1442695040888963407
		sum ^= kernelBuf[(kernelBuf[j]>>40)%uint64(len(kernelBuf))]
	}
	for i := 0; i < 1<<11; i++ {
		k := &kernelKey[(i*7919+int(sum&1023))%kernelKeys]
		s := kernelHash(k) % uint32(len(kernelSlot))
		for kernelKey[kernelSlot[s]-1] != *k {
			s = (s + 1) % uint32(len(kernelSlot))
		}
		sum += uint64(kernelSlot[s])
	}
	kernelSink = sum
	return time.Since(t0)
}
