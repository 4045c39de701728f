"""Exact global heights of flag varieties from root-system data."""
