// Labfinder runs the paper's Figure 1 query end to end through StreamSQL:
// the OpenMachineInfo view over area and seat sensors, joined with the
// Machines table and a visitor's needs, listing free machines with the
// requested capability in open labs — and shows how the result reacts as
// labs close and seats fill.
//
//	go run ./examples/labfinder
package main

import (
	"fmt"
	"log"

	"aspen"
)

func main() {
	app, err := aspen.NewSmartCIS(aspen.SmartCISOptions{
		Building: aspen.BuildingConfig{Labs: 3, DesksPerLab: 3, HallSpacing: 100},
		Seed:     11,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer app.Close()

	// Figure 1's view, over the raw light streams ('open' and 'free'
	// become light-level thresholds, smartcis.OpenRoomLightThreshold and
	// OccupiedLightThreshold):
	// AreaSensors(room, light) and SeatSensors(room, desk, light) are
	// created by SmartCIS at startup. Define the free-machine view.
	if _, err := app.RT.Run(`CREATE VIEW OpenMachineInfo AS (
		SELECT ss.room AS room, ss.desk AS desk FROM AreaSensors sa, SeatSensors ss
		WHERE sa.room = ss.room)`); err != nil {
		log.Fatal(err)
	}

	// The body of Figure 1's rewritten query, bound to a concrete need.
	q, err := app.RT.Run(`SELECT O.room, O.desk, m.name
		FROM OpenMachineInfo O, Machines m
		WHERE O.room = m.room AND O.desk = m.desk AND m.software LIKE '%fedora%'
		ORDER BY O.room`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("federated plan:", q.Partition.Chosen.Desc)
	for _, alt := range q.Partition.Alternatives {
		fmt.Printf("  candidate: %-50s unified cost %.5f\n", alt.Desc, alt.Unified)
	}

	show := func(label string) {
		app.Sched.RunFor(2e9) // let sensing epochs refresh the windows
		rows, err := q.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s → %d candidates\n", label, len(rows))
		seen := map[string]bool{}
		for _, r := range rows {
			key := fmt.Sprintf("%s#%d", r.Vals[0].AsString(), r.Vals[1].AsInt())
			if !seen[key] {
				seen[key] = true
				fmt.Printf("  %s desk %d: %s\n",
					r.Vals[0].AsString(), r.Vals[1].AsInt(), r.Vals[2].AsString())
			}
		}
	}

	show("all labs open, all seats free")

	app.SetDeskOccupied("L101", 1, true)
	show("after someone sits at L101 desk 1")

	app.SetRoomLights("L102", false)
	show("after L102 closes")
}
