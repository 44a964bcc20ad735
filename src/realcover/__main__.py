"""`python -m realcover ...`: the same command as the `realcover` script."""

from .cli import main

if __name__ == "__main__":
    main()
