// Shardworker hosts remote shard replicas for distributed plan execution:
// a coordinator whose plan.Topology (the one struct core.Config,
// smartcis.Options and aspenql's -par/-nodes/-failover flags embed) names
// this worker in Nodes, with Parallelism >= 2, deploys replica subplans
// here over the shard frame protocol (columnar batch bodies, every
// deployment from one coordinator multiplexed over one TCP connection as
// its own stream id), streams hash-partitioned batches and clock ticks
// in, and receives result (or partial-aggregate) rows back — the paper's
// "replicas live on different PCs" deployment model.
//
// With -sensors the worker additionally hosts a deterministic synthetic
// sensor field: deploy specs carrying sensor fragments over the named
// sources run their partitioned epochs inside this process, next to the
// shard replicas they feed (the paper's in-network execution pushed all
// the way to the machine holding the motes). Coordinators advertise the
// hosted sources through node affinity annotations ("addr=src1,src2" in
// Topology.Nodes) so locality placement routes the right shards here.
//
//	go run ./cmd/shardworker -listen 127.0.0.1:7070
//	go run ./cmd/shardworker                # ephemeral port, printed on stdout
//	go run ./cmd/shardworker -sensors "lablight=light,labtemp=temperature"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"aspen/internal/plan"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/vtime"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to serve shard replicas on")
	sensors := flag.String("sensors", "", `host a synthetic sensor field serving these sources: comma-separated name=kind pairs (kinds: light, temperature, rfid), e.g. "lablight=light,labtemp=temperature"`)
	rows := flag.Int("grid-rows", 8, "synthetic field grid rows (with -sensors)")
	cols := flag.Int("grid-cols", 8, "synthetic field grid columns (with -sensors)")
	seed := flag.Int64("seed", 1, "synthetic field radio-loss seed (with -sensors)")
	flag.Parse()

	hosts, err := buildHosts(*sensors, *rows, *cols, *seed)
	if err != nil {
		log.Fatal(err)
	}
	w, err := plan.NewSensorWorker(*listen, hosts)
	if err != nil {
		log.Fatal(err)
	}
	// Catch the stop signals before announcing the address, so a launcher
	// that stops the worker as soon as it has read the banner gets a clean
	// exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// The address line is machine-readable: tests and launch scripts parse
	// it to learn an ephemeral port.
	fmt.Printf("shardworker listening %s\n", w.Addr())
	<-sig
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
}

// buildHosts parses the -sensors source list and stands up one synthetic
// grid field carrying every named kind, registered under each source name.
func buildHosts(spec string, rows, cols int, seed int64) (*plan.SensorHosts, error) {
	if spec == "" {
		return nil, nil
	}
	byName := map[string]sensornet.SensorKind{}
	kinds := []sensornet.SensorKind{}
	seen := map[sensornet.SensorKind]bool{}
	for _, pair := range strings.Split(spec, ",") {
		name, kindName, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("shardworker: -sensors entry %q is not name=kind", pair)
		}
		var kind sensornet.SensorKind
		switch strings.ToLower(strings.TrimSpace(kindName)) {
		case "light":
			kind = sensornet.SensorLight
		case "temperature":
			kind = sensornet.SensorTemperature
		case "rfid":
			kind = sensornet.SensorRFID
		default:
			return nil, fmt.Errorf("shardworker: unknown sensor kind %q", kindName)
		}
		byName[strings.TrimSpace(name)] = kind
		if !seen[kind] {
			seen[kind] = true
			kinds = append(kinds, kind)
		}
	}
	cfg := sensornet.DefaultConfig()
	cfg.Seed = seed
	nw := sensornet.Grid(cfg, rows, cols, 100, cols, kinds...)
	eng := sensor.NewEngine(nw, sensor.EnvFunc(syntheticEnv))
	hosts := plan.NewSensorHosts()
	for name := range byName {
		hosts.Add(name, eng)
	}
	return hosts, nil
}

// syntheticEnv is a pure function of (node, sensor, instant): every process
// that builds the same field sees identical readings, so a coordinator
// running the matching field centrally stays bit-equal with this worker.
func syntheticEnv(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool) {
	return float64(n.ID%17) + float64(uint8(kind))*0.5 + float64(int64(now)/1e9%60)*0.25, true
}
