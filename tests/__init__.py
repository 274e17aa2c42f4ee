"""The test suite as a package: its conftest imports as `tests.conftest`, so it
does not collide with perfbench/tests/conftest.py in one pytest run."""
