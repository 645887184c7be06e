package machine

// SetIntervalHook makes f run after every interval end of m.
func (m *Machine) SetIntervalHook(f func()) { m.intervalHook = f }
