"""Routing engine and discrete-event simulator for path-based transaction networks."""
