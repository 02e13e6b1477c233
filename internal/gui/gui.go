// Package gui renders the SmartCIS graphical interface of Figure 2 as
// text: the building layout with open and closed (shaded) labs, free and
// unavailable machines, the visitor's position, a plotted route to the
// recommended machine, and a status panel showing live query-plan
// information — everything the paper's demo screen shows, in a terminal.
package gui

import (
	"fmt"
	"strings"

	"aspen/internal/building"
	"aspen/internal/routing"
	"aspen/internal/smartcis"
)

// Options controls a frame rendering.
type Options struct {
	// Route, when set, is plotted with '*' between its points.
	Route *routing.Route
	// Visitor, when set, draws '@' at the visitor's located point.
	Visitor string
	// Status lines are printed under the map (query plans, alarms...).
	Status []string
}

// canvas is a mutable character grid.
type canvas struct {
	w, h  int
	cells [][]rune
}

func newCanvas(w, h int) *canvas {
	c := &canvas{w: w, h: h, cells: make([][]rune, h)}
	for i := range c.cells {
		row := make([]rune, w)
		for j := range row {
			row[j] = ' '
		}
		c.cells[i] = row
	}
	return c
}

func (c *canvas) set(x, y int, r rune) {
	if x >= 0 && x < c.w && y >= 0 && y < c.h {
		c.cells[y][x] = r
	}
}

func (c *canvas) get(x, y int) rune {
	if x >= 0 && x < c.w && y >= 0 && y < c.h {
		return c.cells[y][x]
	}
	return ' '
}

func (c *canvas) text(x, y int, s string) {
	for i, r := range s {
		c.set(x+i, y, r)
	}
}

func (c *canvas) hline(x1, x2, y int, r rune) {
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	for x := x1; x <= x2; x++ {
		c.set(x, y, r)
	}
}

func (c *canvas) vline(x, y1, y2 int, r rune) {
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	for y := y1; y <= y2; y++ {
		c.set(x, y, r)
	}
}

func (c *canvas) String() string {
	var b strings.Builder
	for _, row := range c.cells {
		b.WriteString(strings.TrimRight(string(row), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// Render draws one frame of the current deployment state.
func Render(app *smartcis.App, opts Options) string {
	// One cell is 6 feet across and 12 feet down.
	const sx, sy = 1.0 / 6, 1.0 / 12
	minX, minY, maxX, maxY := app.Building.Bounds()
	pad := 2.0
	toCell := func(x, y float64) (int, int) {
		return int((x - minX + pad) * sx), int((maxY - y + pad) * sy)
	}
	w, h := toCell(maxX+2*pad, minY-2*pad)
	c := newCanvas(w+2, h+2)

	// Rooms.
	for i := range app.Building.Rooms {
		r := &app.Building.Rooms[i]
		x1, y1 := toCell(r.X, r.Y+r.H)
		x2, y2 := toCell(r.X+r.W, r.Y)
		c.hline(x1, x2, y1, '-')
		c.hline(x1, x2, y2, '-')
		c.vline(x1, y1, y2, '|')
		c.vline(x2, y1, y2, '|')
		for _, corner := range [][2]int{{x1, y1}, {x2, y1}, {x1, y2}, {x2, y2}} {
			c.set(corner[0], corner[1], '+')
		}
		closed := r.Kind != building.Lobby && !app.RoomLit(r.Name)
		if closed {
			for y := y1 + 1; y < y2; y++ {
				for x := x1 + 1; x < x2; x++ {
					c.set(x, y, '░')
				}
			}
		}
		label := r.Name
		if closed {
			label += " (closed)"
		}
		c.text(x1+1, y1, label)
		// Desks: 'o' free seat, 'x' occupied, shown inside open rooms.
		if !closed {
			for _, d := range r.Desks {
				dx, dy := toCell(d.X, d.Y)
				glyph := 'o'
				if app.DeskOccupied(r.Name, d.Num) {
					glyph = 'x'
				}
				c.set(dx, dy, glyph)
			}
		}
	}

	// Hallway spine between routing points.
	pts := app.Building.Points()
	for _, e := range app.Building.RoutingEdges() {
		p1, ok1 := app.Building.Point(e.From)
		p2, ok2 := app.Building.Point(e.To)
		if !ok1 || !ok2 {
			continue
		}
		if !strings.HasPrefix(e.From, "hall") && e.From != "lobby" {
			continue
		}
		if !strings.HasPrefix(e.To, "hall") && e.To != "lobby" {
			continue
		}
		x1, y1 := toCell(p1.X, p1.Y)
		x2, _ := toCell(p2.X, p2.Y)
		c.hline(x1, x2, y1, '=')
	}
	for _, p := range pts {
		if strings.HasPrefix(p.Name, "hall") || p.Name == "lobby" {
			x, y := toCell(p.X, p.Y)
			c.set(x, y, '#')
		}
	}

	// Route overlay.
	if opts.Route != nil && len(opts.Route.Points) > 1 {
		for i := 0; i+1 < len(opts.Route.Points); i++ {
			p1, ok1 := app.Building.Point(opts.Route.Points[i])
			p2, ok2 := app.Building.Point(opts.Route.Points[i+1])
			if !ok1 || !ok2 {
				continue
			}
			drawSegment(c, toCell, p1.X, p1.Y, p2.X, p2.Y)
		}
		if last, ok := app.Building.Point(opts.Route.Points[len(opts.Route.Points)-1]); ok {
			x, y := toCell(last.X, last.Y)
			c.set(x, y, '!')
		}
	}

	// Visitor marker.
	if opts.Visitor != "" {
		if at, ok := app.LocateVisitor(opts.Visitor); ok {
			if p, ok := app.Building.Point(at); ok {
				x, y := toCell(p.X, p.Y)
				c.set(x, y, '@')
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "SmartCIS — %s   (o free desk, x occupied, ░ closed, * route, @ visitor)\n",
		app.Building.Name)
	b.WriteString(c.String())
	if len(opts.Status) > 0 {
		b.WriteString(strings.Repeat("-", 72))
		b.WriteByte('\n')
		for _, s := range opts.Status {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// drawSegment rasterizes a straight route segment with '*'.
func drawSegment(c *canvas, toCell func(float64, float64) (int, int), x1, y1, x2, y2 float64) {
	steps := 24
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		x, y := toCell(x1+(x2-x1)*t, y1+(y2-y1)*t)
		if r := c.get(x, y); r == ' ' || r == '=' || r == '#' || r == '░' {
			c.set(x, y, '*')
		}
	}
}

// StatusPanel formats the live query/plan panel the demo shows alongside
// the map (§4: "real-time information about the actual computations being
// performed").
func StatusPanel(app *smartcis.App, queries map[string]string) []string {
	var out []string
	m := app.Net.Metrics()
	out = append(out, fmt.Sprintf("motes: %d alive (diameter %d hops); radio: %d msgs, %.1f mJ",
		app.Net.Len()-m.DeadNodes, app.Net.Diameter(), m.Sent, m.EnergyMJ))
	out = append(out, fmt.Sprintf("min mote battery: %.1f mJ", app.Net.MinBattery()))
	for name, plan := range queries {
		out = append(out, fmt.Sprintf("%s: %s", name, plan))
	}
	return out
}
