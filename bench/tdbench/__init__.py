"""Workloads, checks and tracing of the twistdirac benchmark."""
