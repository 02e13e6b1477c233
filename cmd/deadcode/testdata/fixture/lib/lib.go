// Package lib holds one declaration for each case the checker's test pins.
package lib

// Shape is implemented by Square; main calls Area through it.
type Shape interface{ Area() float64 }

// Square is reached from main; its Area only through Shape.
type Square struct{}

func (Square) Area() float64 { return 1 }

func Used()           {}
func ViaFacade()      {}
func ToolOnly()       {} // only the second module's main calls it
func StaleListed()    {}
func Allowed()        {}
func DeadExported()   {}
func deadUnexported() {}
