package main

import "fix/lib"

func main() {
	lib.Used()
	lib.StaleListed()
	var s lib.Shape = lib.Square{}
	_ = s.Area()
}
