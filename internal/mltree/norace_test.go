//go:build !race

package mltree

const raceEnabled = false
