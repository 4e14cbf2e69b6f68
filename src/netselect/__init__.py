"""Sensor subset selection and reconstruction for networks of time series."""
