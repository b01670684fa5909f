"""Payload-tier policy tests: a package so suites can share the replay."""
