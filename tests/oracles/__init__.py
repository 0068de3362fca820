"""Slow, independent reference implementations that the tests compare against."""
