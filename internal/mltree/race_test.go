//go:build race

package mltree

const raceEnabled = true
