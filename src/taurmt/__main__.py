"""python -m taurmt <command> ...: the same entry point as the taurmt script."""

from .cli import main

raise SystemExit(main())
