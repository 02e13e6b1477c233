// Aspenql parses, optimizes and executes StreamSQL statements against a
// simulated SmartCIS deployment, printing the federated plan and the live
// result — the paper's "GUI system interface" for query authoring, as a CLI.
//
//	go run ./cmd/aspenql -q "SELECT t.room, avg(t.value) FROM Temperature t GROUP BY t.room"
//	go run ./cmd/aspenql -plan -q "SELECT t.room, t.value FROM Temperature t, Light l WHERE t.room = l.room AND t.desk = l.desk AND l.value < 10"
//	echo "CREATE VIEW V AS (SELECT l.room FROM Light l); SELECT v.room FROM V v" | go run ./cmd/aspenql
//
// -par, -nodes and -failover fill one aspen.Topology (plan.Topology), the
// struct every layer below carries unchanged down to the shard set.
//
// Elastic administration: statements may be interleaved with backslash
// directives — `\rescale addr1,addr2` retargets that topology's Nodes:
// every deployed sharded query live-migrates onto the new workers (empty
// list heals everything back in-process) and later statements deploy over
// them, with or without -snapshot; a list a deploy would reject (duplicate
// address, workers without -par >= 2) is an error and changes nothing.
// `\save` checkpoints all standing queries to the -snapshot file and names,
// on stderr, any it cannot capture (WITH RECURSIVE queries); -restore repeats
// the names. With -snapshot plus -restore, a fresh coordinator rehydrates
// the standing queries recorded in the file and resumes them from their last
// committed checkpoint:
//
//	go run ./cmd/aspenql -par 2 -snapshot coord.snap \
//	  -q "SELECT t.room, avg(t.value) FROM Temperature t GROUP BY t.room; \save"
//	go run ./cmd/aspenql -par 2 -snapshot coord.snap -restore
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"aspen"
)

func main() {
	query := flag.String("q", "", "StreamSQL statement (default: read ;-separated statements from stdin)")
	labs := flag.Int("labs", 4, "laboratories in the simulated building")
	runFor := flag.Duration("run", 3*time.Second, "virtual time to run before snapshotting")
	planOnly := flag.Bool("plan", false, "show the federated plan without executing")
	occupy := flag.String("occupy", "L101:1,L102:3", "comma-separated room:desk pairs to occupy")
	par := flag.Int("par", 1, "shard deployed stream plans across this many pipeline replicas")
	nodes := flag.String("nodes", "", "comma-separated shardworker addresses to spread replicas over (see cmd/shardworker; empty entries stay in-process; requires -par >= 2)")
	failover := flag.Bool("failover", false, "redeploy the shards of a dead or stalled worker from their last checkpoint onto a surviving worker (or in-process), keeping results exact across the loss (requires -nodes)")
	snapshot := flag.String("snapshot", "", "durable coordinator: track standing queries in this snapshot file (written by the \\save directive, read by -restore)")
	restore := flag.Bool("restore", false, "rehydrate the standing queries recorded in the -snapshot file and resume them from their last committed checkpoint before running any statements")
	flag.Parse()

	var topo []string
	if *nodes != "" {
		for _, n := range strings.Split(*nodes, ",") {
			topo = append(topo, strings.TrimSpace(n))
		}
		if *par < 2 {
			log.Fatalf("-nodes names %d shard workers but -par is %d; replicas only distribute with -par >= 2",
				len(topo), *par)
		}
	}
	if *failover && len(topo) == 0 {
		log.Fatal("-failover needs a -nodes worker topology to fail over from")
	}
	if *restore && *snapshot == "" {
		log.Fatal("-restore needs a -snapshot file to restore from")
	}
	occupied, err := parseOccupy(*occupy)
	if err != nil {
		log.Fatal(err)
	}
	opts := aspen.SmartCISOptions{
		Building:     aspen.BuildingConfig{Labs: *labs, DesksPerLab: 6, HallSpacing: 100, Offices: 2},
		Topology:     aspen.Topology{Parallelism: *par, Nodes: topo},
		SnapshotPath: *snapshot,
	}
	opts.Failover = *failover
	app, err := aspen.NewSmartCIS(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer app.Close()
	app.Start()
	for _, d := range occupied {
		app.SetDeskOccupied(d.room, d.desk, true)
	}

	var statements []string
	if *query != "" {
		for _, s := range strings.Split(*query, ";") {
			if strings.TrimSpace(s) != "" {
				statements = append(statements, s)
			}
		}
	} else {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var all strings.Builder
		for sc.Scan() {
			all.WriteString(sc.Text())
			all.WriteByte('\n')
		}
		for _, s := range strings.Split(all.String(), ";") {
			if strings.TrimSpace(s) != "" {
				statements = append(statements, s)
			}
		}
	}
	if len(statements) == 0 && !*restore {
		fmt.Fprintln(os.Stderr, "no statements; use -q, pipe SQL on stdin, or -restore a snapshot")
		os.Exit(2)
	}

	showResult := func(q *aspen.Query) {
		rows, err := q.Snapshot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("result after %s of building time (%d rows):\n", *runFor, len(rows))
		for i, r := range rows {
			if i == 20 {
				fmt.Printf("  ... %d more\n", len(rows)-20)
				break
			}
			cells := make([]string, len(r.Vals))
			for j, v := range r.Vals {
				cells[j] = v.String()
			}
			fmt.Printf("  %s\n", strings.Join(cells, " | "))
		}
		fmt.Println()
	}

	if *restore {
		qs, skipped, err := app.RestoreSnapshot()
		if err != nil {
			log.Fatalf("restore: %v", err)
		}
		fmt.Printf("restored %d standing queries from %s\n", len(qs), *snapshot)
		if len(skipped) > 0 {
			fmt.Fprintf(os.Stderr, "warning: snapshot does not capture %s; re-run those queries\n",
				strings.Join(skipped, ", "))
		}
		app.Sched.RunFor(*runFor)
		for _, q := range qs {
			fmt.Printf("aspenql> [%s] %s\n", q.Name(), strings.Join(strings.Fields(q.SQL), " "))
			showResult(q)
		}
	}

	for _, stmt := range statements {
		fmt.Printf("aspenql> %s\n", strings.Join(strings.Fields(stmt), " "))
		if cmd := strings.TrimSpace(stmt); strings.HasPrefix(cmd, `\`) {
			if err := adminDirective(app, cmd); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		q, err := app.RT.Run(stmt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if q.Partition != nil {
			fmt.Printf("plan: %s\n", q.Partition.Chosen.Desc)
			fmt.Printf("      stream plan: %s\n", q.Partition.Chosen.StreamPlan)
			for _, alt := range q.Partition.Alternatives {
				marker := "   "
				if alt == q.Partition.Chosen {
					marker = "-->"
				}
				fmt.Printf("  %s %-55s unified %.4f (radio %.1f msg/s, stream %.0f work/s)\n",
					marker, alt.Desc, alt.Unified, alt.MsgsPerSec, alt.StreamWork)
			}
		}
		if *planOnly || q.Deployment == nil {
			continue
		}
		app.Sched.RunFor(*runFor)
		showResult(q)
	}
}

// deskRef names one desk of the simulated building.
type deskRef struct {
	room string
	desk int
}

// parseOccupy splits the -occupy list into its room:desk pairs; an empty
// list occupies nothing. A pair that is not room:desk is an error, not a
// desk silently left free.
func parseOccupy(list string) ([]deskRef, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var desks []deskRef
	for _, pair := range strings.Split(list, ",") {
		room, num, ok := strings.Cut(strings.TrimSpace(pair), ":")
		desk, err := strconv.Atoi(num)
		if !ok || room == "" || err != nil {
			return nil, fmt.Errorf("-occupy: %q is not a room:desk pair (want e.g. L101:1)", pair)
		}
		desks = append(desks, deskRef{room, desk})
	}
	return desks, nil
}

// adminDirective executes one backslash admin command against the running
// deployment: \rescale addr1,addr2 retargets the worker topology and
// live-migrates every sharded query onto it (empty list heals everything
// back in-process), \save checkpoints all standing queries to the
// -snapshot file.
func adminDirective(app *aspen.SmartCIS, cmd string) error {
	verb, rest, _ := strings.Cut(cmd, " ")
	switch verb {
	case `\rescale`:
		var nodes []string
		if rest = strings.TrimSpace(rest); rest != "" {
			for _, n := range strings.Split(rest, ",") {
				nodes = append(nodes, strings.TrimSpace(n))
			}
		}
		if err := app.Rescale(nodes); err != nil {
			return err
		}
		if len(nodes) == 0 {
			fmt.Println("rescaled: all shards in-process")
		} else {
			fmt.Printf("rescaled onto %s\n", strings.Join(nodes, ", "))
		}
		return nil
	case `\save`:
		skipped, err := app.SaveSnapshot()
		if err != nil {
			return err
		}
		if len(skipped) > 0 {
			fmt.Fprintf(os.Stderr, "warning: snapshot does not capture %s\n", strings.Join(skipped, ", "))
		}
		fmt.Println("snapshot saved")
		return nil
	}
	return fmt.Errorf("unknown directive %q (have \\rescale, \\save)", verb)
}
