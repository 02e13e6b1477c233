package main

import "fix/lib"

func main() { lib.ToolOnly() }
