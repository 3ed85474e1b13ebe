package dead // want `package qppt/internal/dead: nothing in it is reached`

// Orphan is exported, but nothing imports the package.
func Orphan() int { return 1 }
