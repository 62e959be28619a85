"""Measurement utilities shared by tests, examples, and benchmark harnesses."""
