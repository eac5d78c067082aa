"""Host-speed benchmark of the simulator and the stack built on it."""
