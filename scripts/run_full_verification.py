#!/usr/bin/env python3
"""Runs `gpi-lab verify` with the same arguments; kept for callers of this path."""
import sys
from gpi_lab.cli import main
sys.exit(main(["verify", *sys.argv[1:]]))
