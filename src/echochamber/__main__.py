"""Run the command-line interface: python -m echochamber."""
from .cli import main

raise SystemExit(main())
