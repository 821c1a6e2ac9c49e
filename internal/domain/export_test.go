package domain

// NewSpace and AudioApp hand the lab space and its application to the
// external tests, whose imports import this package.
var (
	NewSpace = newSpace
	AudioApp = audioApp
)
